package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"time"
)

// served drives a spawned sptc-serve over loopback with one keep-alive
// connection. Set-up uploads Y and every X as binary SPTN and issues one cold
// request, so the plan cache holds Y's table before anything is timed.
type served struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	spec   string
	pairs  []pairRef
}

// contractReply is the part of sptc-serve's POST /contract reply the
// benchmark checks.
type contractReply struct {
	OutDims     []uint64 `json:"out_dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
	HtYReused   bool     `json:"hty_reused"`
	WallNS      int64    `json:"wall_ns"`
}

// startServer spawns the server on a free loopback port and waits until it
// answers /healthz.
func startServer(bin string) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = io.Discard // the server logs one line per start
	cmd.SysProcAttr = dieWithParent
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &served{cmd: cmd, base: "http://" + addr, client: &http.Client{Timeout: 60 * time.Second}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			drain(resp)
			return s, nil
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("%s did not answer /healthz: %w", bin, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // reading to EOF is what frees the connection for reuse
	_ = resp.Body.Close()
}

func newServed(bin string, m manifest) (*served, error) {
	s, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	s.spec, s.pairs = m.Spec, m.Pairs
	if err := s.put("y", m.YFile); err != nil {
		s.close()
		return nil, err
	}
	for i, p := range m.Pairs {
		if err := s.put(fmt.Sprintf("x%d", i), p.XFile); err != nil {
			s.close()
			return nil, err
		}
	}
	if _, _, err := s.contract(0); err != nil { // the cold request: builds and caches HtY
		s.close()
		return nil, fmt.Errorf("cold request: %w", err)
	}
	return s, nil
}

// put uploads a tensor file under name.
func (s *served) put(name, file string) error {
	body, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, s.base+"/tensors/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("PUT %s: %s: %s", name, resp.Status, msg)
	}
	return nil
}

// contract posts one request for X number k and returns the client-side
// latency and the decoded reply.
func (s *served) contract(k int) (time.Duration, *contractReply, error) {
	body := fmt.Sprintf(`{"x":"x%d","y":"y","spec":%q}`, k, s.spec)
	start := time.Now()
	resp, err := s.client.Post(s.base+"/contract", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, nil, fmt.Errorf("POST /contract: %s: %s", resp.Status, msg)
	}
	var rep contractReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, nil, err
	}
	return time.Since(start), &rep, nil
}

// op is one timed request, checked after its latency is taken.
func (s *served) op(i int) (time.Duration, error) {
	k := i % len(s.pairs)
	wall, rep, err := s.contract(k)
	if err != nil {
		return wall, err
	}
	return wall, s.check(k, rep)
}

// check holds a reply for X number k to the reference: it must come from the
// cached table and carry the fingerprint of the reference-checked output.
func (s *served) check(k int, rep *contractReply) error {
	p := s.pairs[k]
	switch {
	case !rep.HtYReused:
		return fmt.Errorf("reply for x%d rebuilt HtY (hty_reused false)", k)
	case rep.NNZ != p.Ref.NNZ:
		return fmt.Errorf("reply nnz %d, reference %d", rep.NNZ, p.Ref.NNZ)
	case fmt.Sprint(rep.OutDims) != fmt.Sprint(p.OutDims):
		return fmt.Errorf("reply out_dims %v, reference %v", rep.OutDims, p.OutDims)
	case rep.Fingerprint != p.Fingerprint:
		return fmt.Errorf("reply fingerprint %s, checked output has %s", rep.Fingerprint, p.Fingerprint)
	}
	return nil
}

// mem reads the server's runtime.MemStats from /debug/vars.
func (s *served) mem() (memSnap, error) {
	resp, err := s.client.Get(s.base + "/debug/vars")
	if err != nil {
		return memSnap{}, err
	}
	defer drain(resp)
	var vars struct {
		Memstats memSnap `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return memSnap{}, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Memstats, nil
}

func (s *served) pid() int { return s.cmd.Process.Pid }

// close kills the server and waits for it to exit.
func (s *served) close() {
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // a killed process always reports an error
	s.client.CloseIdleConnections()
}
