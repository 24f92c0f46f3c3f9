package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.loadDemo()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postContract(t *testing.T, url string, req contractRequest) (*http.Response, contractReply, errorReply) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/contract", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /contract: %v", err)
	}
	defer resp.Body.Close()
	var ok contractReply
	var bad errorReply
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decoding reply %q: %v", buf.String(), err)
		}
	} else if err := json.Unmarshal(buf.Bytes(), &bad); err != nil {
		t.Fatalf("decoding error reply %q: %v", buf.String(), err)
	}
	return resp, ok, bad
}

// TestContractWarmCold is the serving core: the first contraction builds
// the HtY, the second (same Y) reuses it, and both produce the identical
// output tensor.
func TestContractWarmCold(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}

	resp, cold, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d", resp.StatusCode)
	}
	if cold.HtYReused {
		t.Error("cold request claims hty_reused")
	}
	if cold.NNZ == 0 || cold.Fingerprint == "" {
		t.Fatalf("degenerate cold reply: %+v", cold)
	}

	resp, warm, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d", resp.StatusCode)
	}
	if !warm.HtYReused {
		t.Error("warm request did not reuse the prepared HtY")
	}
	if warm.Fingerprint != cold.Fingerprint || warm.NNZ != cold.NNZ {
		t.Errorf("warm output differs: cold %s/%d, warm %s/%d",
			cold.Fingerprint, cold.NNZ, warm.Fingerprint, warm.NNZ)
	}
	// demoB's free-Y space is 35x20 cells at ~60 items a contract key: the
	// kernel accumulates most sub-tensors in its direct-indexed array, the
	// same ones on either request.
	if cold.DenseSubs == 0 || warm.DenseSubs != cold.DenseSubs {
		t.Errorf("dense_subs: cold %d, warm %d", cold.DenseSubs, warm.DenseSubs)
	}

	// One stored tensor as both operands: its table is kept beside the X
	// the first request swapped into the store, not lost with the operand
	// that request read, and it rides across the swaps a request for the
	// other order of demoA makes.
	self := contractRequest{X: "demoA", Y: "demoA", Spec: "abc,abd->cd"}
	want := map[string]string{req.Spec: replyKey(cold)}
	for i, c := range []struct {
		req    contractRequest
		reused bool
	}{{self, false}, {self, true}, {req, true}, {self, true}} {
		rep := mustContract(t, ts.URL, c.req)
		if _, ok := want[c.req.Spec]; !ok {
			want[c.req.Spec] = replyKey(rep)
		}
		if rep.HtYReused != c.reused || replyKey(rep) != want[c.req.Spec] {
			t.Errorf("request %d (%s): hty_reused %v (want %v), reply %s (want %s)",
				i+1, c.req.Spec, rep.HtYReused, c.reused, replyKey(rep), want[c.req.Spec])
		}
	}
}

// TestConcurrentRequests hammers one warm route from many goroutines; all
// must succeed with the same fingerprint.
func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{MaxInflight: 4, QueueWait: 30 * time.Second})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}
	resp, first, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: status %d", resp.StatusCode)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, rep, bad := postContract(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, bad.Error)
				return
			}
			if rep.Fingerprint != first.Fingerprint {
				errs <- fmt.Errorf("fingerprint %s != %s", rep.Fingerprint, first.Fingerprint)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShedTinyBudget: with a DRAM budget far below any footprint, Sparta
// requests are shed with 503, and the shed is counted.
func TestShedTinyBudget(t *testing.T) {
	s, ts := testServer(t, serverConfig{DRAMBudget: 1024})
	resp, _, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 shed, got %d", resp.StatusCode)
	}
	if !strings.Contains(bad.Error, "DRAM budget") {
		t.Errorf("shed reply does not explain itself: %q", bad.Error)
	}
	if n := s.reg.Counter("sptc_serve_requests_total", "", "route", "contract", "outcome", "shed_memory").Value(); n == 0 {
		t.Error("shed_memory counter not incremented")
	}
}

// streamedBudget picks a DRAM budget between the prepared table's size and
// the full footprint of req on s, so admission lands on the streamed tier:
// HtY fits, the unwindowed working set does not.
func streamedBudget(t *testing.T, s *server, req contractRequest) uint64 {
	t.Helper()
	ein, err := einsum.Parse(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: s.threads}
	pr, err := core.PrepareY(s.stored(req.Y).t, ein.CmodesY, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := engine.EstimateFootprint(s.stored(req.X).t.NNZ(), pr)
	return fp.HtY + (fp.Total(s.threads)-fp.HtY)/8
}

// TestStreamedTier: a budget that holds the prepared table but not the full
// working set degrades to the windowed out-of-core driver instead of
// shedding — 200, tagged "streamed", and bit-identical to the in-memory
// result — for specs that contract X's trailing mode and, with the stored X
// reordered once, its leading ones. The windows are the stored operand's
// rows, not a copy of them.
func TestStreamedTier(t *testing.T) {
	x, yl, _ := orderTensors(10)
	load := func(s *server) {
		s.loadDemo()
		s.put("x", x)
		s.put("yl", yl)
	}
	s0 := newServer(serverConfig{})
	load(s0)
	ts0 := httptest.NewServer(s0.handler())
	t.Cleanup(ts0.Close)
	for _, req := range []contractRequest{
		{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"},
		{X: "demoA", Y: "demoB", Spec: "abc,cde->deab"},
		reqLeadOut,
	} {
		spec := req.Spec
		resp, base, bad := postContract(t, ts0.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: baseline status %d (%s)", spec, resp.StatusCode, bad.Error)
		}
		if base.ExecutionTier != "dram" {
			t.Errorf("%s: unbudgeted request ran tier %q, want dram", spec, base.ExecutionTier)
		}

		probe := newServer(serverConfig{})
		load(probe)
		s := newServer(serverConfig{DRAMBudget: streamedBudget(t, probe, req)})
		load(s)
		ts := httptest.NewServer(s.handler())
		t.Cleanup(ts.Close)
		resp, got, bad := postContract(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: streamed tier shed instead of degrading: status %d (%s)",
				spec, resp.StatusCode, bad.Error)
		}
		if got.ExecutionTier != "streamed" {
			t.Errorf("%s: execution_tier = %q, want streamed", spec, got.ExecutionTier)
		}
		if got.Fingerprint != base.Fingerprint || got.NNZ != base.NNZ {
			t.Errorf("%s: streamed output differs: dram %s/%d, streamed %s/%d",
				spec, base.Fingerprint, base.NNZ, got.Fingerprint, got.NNZ)
		}
		if got.Windows < 1 {
			t.Errorf("%s: streamed reply reports %d windows", spec, got.Windows)
		}
		if n := s.reg.Counter("sptc_serve_tier_total", "", "tier", "streamed").Value(); n == 0 {
			t.Error("streamed tier counter not incremented")
		}
		if req == reqLeadOut { // Z is small enough to see a copy of X in the allocations
			windowsShareTheStoredRows(t, ts.URL, ts0.URL, req, x.Bytes())
		}
	}
}

// TestCIStreamedBudget: the serve-smoke job's streamed leg starts the demo
// server at 2 threads with a fixed -dram-budget and asserts the streamed
// tier. The number is streamedBudget's for the demo request, so a change to
// the demo operands' footprint (the HtY index arm, HtA's Eq. 6 term) fails
// here, with the number to write, instead of in CI.
func TestCIStreamedBudget(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`-demo -threads 2 -dram-budget (\d+)`).FindSubmatch(raw)
	if m == nil {
		t.Fatal("ci.yml: no streamed leg (-demo -threads 2 -dram-budget N) found")
	}
	budget, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}
	probe := newServer(serverConfig{Threads: 2})
	probe.loadDemo()
	if want := streamedBudget(t, probe, req); budget != want {
		t.Errorf("ci.yml streams the demo request under -dram-budget %d; streamedBudget gives %d", budget, want)
	}
	_, ts := testServer(t, serverConfig{Threads: 2, DRAMBudget: budget})
	resp, got, bad := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || got.ExecutionTier != "streamed" {
		t.Fatalf("-dram-budget %d: status %d (%s), execution_tier %q, want 200 streamed",
			budget, resp.StatusCode, bad.Error, got.ExecutionTier)
	}
}

// TestServerServesSpartaOnly: a request that names an algorithm — any
// algorithm — is refused with a 400 that names the field, so nothing reaches
// the paper's baselines, which run with no memory gate.
func TestServerServesSpartaOnly(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, alg := range []string{"spa", "coohta", "twophase", "sparta"} {
		resp, _, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde", Algorithm: alg})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(bad.Error, `"algorithm"`) {
			t.Errorf("algorithm %q: status %d (%q), want 400 naming the field", alg, resp.StatusCode, bad.Error)
		}
	}
	if resp, rep, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}); resp.StatusCode != http.StatusOK || rep.NNZ == 0 {
		t.Fatalf("request without the field: status %d (%s)", resp.StatusCode, bad.Error)
	}
}

// TestRequestThreadsAreClamped: a request's thread count is bounded by the
// server's -threads before it sizes anything — 4096 on a two-thread server
// runs two, on POST /contract (the access log's threads tag) and on
// /shard/contract (the Report in X-Sptc-Report).
func TestRequestThreadsAreClamped(t *testing.T) {
	var log bytes.Buffer
	s := newServer(serverConfig{Threads: 2, AccessLog: &log})
	s.loadDemo()
	h := s.handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/contract",
		strings.NewReader(`{"x":"demoA","y":"demoB","spec":"abc,cde->abde","threads":4096}`)))
	var al accessLine
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /contract: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(log.Bytes(), &al); err != nil || al.Tags["threads"] != "2" {
		t.Errorf("access line %s (%v): want the tag threads=2", log.Bytes(), err)
	}

	x := gen.Random([]uint64{20, 16}, 180, 5)
	s.put("shardY", gen.Random([]uint64{16, 12}, 120, 6))
	var body bytes.Buffer
	if err := x.WriteBin(&body); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/contract?y=shardY&cx=1&cy=0&threads=4096", &body))
	var rep core.Report
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /shard/contract: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal([]byte(rec.Header().Get("X-Sptc-Report")), &rep); err != nil || rep.Threads != 2 {
		t.Errorf("shard report threads %d (%v), want 2", rep.Threads, err)
	}
}

// TestShedInflight: with the only slot occupied and no queue wait, a
// request is shed immediately.
func TestShedInflight(t *testing.T) {
	s, ts := testServer(t, serverConfig{MaxInflight: 1, QueueWait: -1})
	s.inflight <- struct{}{} // occupy the only slot
	defer func() { <-s.inflight }()
	resp, _, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 shed, got %d (%s)", resp.StatusCode, bad.Error)
	}
	if n := s.reg.Counter("sptc_serve_requests_total", "", "route", "contract", "outcome", "shed_inflight").Value(); n == 0 {
		t.Error("shed_inflight counter not incremented")
	}
}

// TestTensorUploadRoundTrip uploads a .tns body and contracts against it.
func TestTensorUploadRoundTrip(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	y := gen.Random([]uint64{50, 12, 9}, 500, 7)
	var buf bytes.Buffer
	if err := y.WriteTNS(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/tensors/up", &buf)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info tensorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.NNZ != y.NNZ() {
		t.Fatalf("upload: status %d, info %+v", resp.StatusCode, info)
	}
	cresp, rep, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "up", Spec: "abc,cde->abde"})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("contract vs uploaded: status %d (%s)", cresp.StatusCode, bad.Error)
	}
	if rep.NNZ == 0 {
		t.Error("contraction against uploaded tensor produced nothing")
	}
}

// TestOversizedContractBody: a POST /contract body past maxContractBody is
// answered 413 with the usual error reply, and the server keeps serving.
func TestOversizedContractBody(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	body := `{"x":"` + strings.Repeat("a", 2<<20) + `","y":"demoB","spec":"abc,cde->abde"}`
	resp, err := http.Post(ts.URL+"/contract", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bad errorReply
	err = json.NewDecoder(resp.Body).Decode(&bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: want 413, got %d", resp.StatusCode)
	}
	if err != nil || bad.Error == "" {
		t.Errorf("413 without an error reply: %v %+v", err, bad)
	}
	resp, ok, _ := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusOK || ok.NNZ == 0 {
		t.Fatalf("well-formed request after the 413: status %d, %+v", resp.StatusCode, ok)
	}
}

// TestBadRequests drives the 400 paths.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	cases := []contractRequest{
		{X: "nope", Y: "demoB", Spec: "abc,cde->abde"},
		{X: "demoA", Y: "nope", Spec: "abc,cde->abde"},
		{X: "demoA", Y: "demoB", Spec: "abc,cde"},      // no arrow
		{X: "demoA", Y: "demoB", Spec: "ab,cde->abde"}, // rank mismatch
		{X: "demoA", Y: "demoB", Spec: "abc,cde->abde", Algorithm: "nope"},
	}
	for _, c := range cases {
		resp, _, _ := postContract(t, ts.URL, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: want 400, got %d", c, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/contract", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: want 400, got %d", resp.StatusCode)
	}
}

// TestMetricsExposition checks the serving metrics appear on /metrics.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`sptc_serve_requests_total{outcome="ok",route="contract"}`,
		`sptc_serve_y_prepared_total{outcome="miss"}`,
		`sptc_serve_y_prepared_total{outcome="hit"}`,
		"sptc_serve_inflight",
		`sptc_serve_x_prepared_total{outcome="miss"}`,
		`sptc_serve_x_prepared_total{outcome="hit"}`,
		"sptc_accum_dense_subtensors_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"512", 512, true},
		{"64K", 64_000, true},
		{"1.5M", 1_500_000, true},
		{"2Gi", 2 << 30, true},
		{"4Ki", 4096, true},
		{"", 0, false},
		{"x", 0, false},
		{"-5", 0, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
