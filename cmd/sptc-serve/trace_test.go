package main

// Tests for the request lifecycle: request IDs, the access log ↔ span tree
// correspondence, Retry-After on sheds, quantile exposition, and the error
// paths (malformed bodies, unknown tensors, mid-request cancellation).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sparta/internal/gen"
	"sparta/internal/obs"
)

// traceDump mirrors the Chrome trace-event JSON far enough for assertions.
type traceDump struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func fetchTrace(t *testing.T, url string) traceDump {
	t.Helper()
	resp, err := http.Get(url + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", resp.StatusCode)
	}
	var td traceDump
	if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	return td
}

// spanTreeFor returns the set of span names recorded on the track whose
// "request" span carries the given request ID, or nil if no such tree.
func (td traceDump) spanTreeFor(id string) map[string]bool {
	track := -1
	for _, ev := range td.TraceEvents {
		if ev.Name == "request" && ev.Ph == "B" && ev.Args["request_id"] == id {
			track = ev.Tid
		}
	}
	if track < 0 {
		return nil
	}
	names := map[string]bool{}
	for _, ev := range td.TraceEvents {
		if ev.Tid == track && ev.Ph == "B" {
			names[ev.Name] = true
		}
	}
	return names
}

// TestRequestIDHeader: the server echoes a supplied X-Request-ID and mints
// one when absent.
func TestRequestIDHeader(t *testing.T) {
	_, ts := testServer(t, serverConfig{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/tensors/demoA", nil)
	req.Header.Set("X-Request-ID", "feedfacefeedface")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "feedfacefeedface" {
		t.Errorf("supplied ID not echoed: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/tensors/demoA")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated ID: got %q, want 16 hex chars", got)
	}
}

// TestAccessLogTraceResolution is the tentpole acceptance check: every
// request ID in the access log resolves to a complete span tree in the
// Chrome trace, and the access line carries the per-stage walls and
// prepared-operand tags that make it useful without the trace.
func TestAccessLogTraceResolution(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := testServer(t, serverConfig{
		MaxInflight: 2,
		QueueWait:   time.Second,
		Tracer:      obs.NewTracer(),
		AccessLog:   &logBuf,
	})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}
	for i := 0; i < 2; i++ { // cold then warm
		if resp, _, bad := postContract(t, ts.URL, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("contract %d: status %d (%s)", i, resp.StatusCode, bad.Error)
		}
	}
	td := fetchTrace(t, ts.URL)

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	wantSpans := []string{
		"queue wait", "x order", "y prepare", "admission", "contract",
		"input processing", "compute", "writeback gather", "request",
	}
	for i, ln := range lines {
		var al accessLine
		if err := json.Unmarshal([]byte(ln), &al); err != nil {
			t.Fatalf("access line %d: %v (%s)", i, err, ln)
		}
		if al.RequestID == "" || al.Route != "contract" || al.Status != http.StatusOK {
			t.Fatalf("access line %d degenerate: %+v", i, al)
		}
		if al.Tags["outcome"] != "ok" {
			t.Errorf("access line %d tags: %+v", i, al.Tags)
		}
		// Stage ① for Y runs once per stored operand too: the cold request
		// builds demoB's HtY, the warm one finds it.
		warm := i == 1
		for _, tag := range []string{"hty_reused", "y_prepared"} {
			if got := al.Tags[tag]; got != strconv.FormatBool(warm) {
				t.Errorf("access line %d: %s = %q, want %v", i, tag, got, warm)
			}
		}
		if al.Phases["contract"] <= 0 {
			t.Errorf("access line %d: no contract phase wall: %+v", i, al.Phases)
		}
		if _, ok := al.Phases["stage_input"]; !ok {
			t.Errorf("access line %d: missing stage_input wall: %+v", i, al.Phases)
		}
		// Stage ① for X runs once per stored operand: the cold request
		// prepares demoA, the warm one starts at the first HtY probe.
		if got := al.Tags["x_prepared"]; got != strconv.FormatBool(warm) {
			t.Errorf("access line %d: x_prepared = %q, want %v", i, got, warm)
		}
		if warm && 20*al.Phases["stage_input"] >= al.Phases["contract"] {
			t.Errorf("warm request: stage_input %d ns is not under 5%% of the contract phase (%d ns)",
				al.Phases["stage_input"], al.Phases["contract"])
		}

		// The ID must resolve to a complete span tree in the trace.
		tree := td.spanTreeFor(al.RequestID)
		if tree == nil {
			t.Fatalf("request %s has no span tree in the trace", al.RequestID)
		}
		for _, name := range wantSpans {
			if !tree[name] {
				t.Errorf("request %s (line %d): span tree missing %q (has %v)",
					al.RequestID, i, name, tree)
			}
		}
		if tree["x sort"] == warm {
			t.Errorf("request %s (line %d): \"x sort\" span present = %v, want it on the cold request only",
				al.RequestID, i, tree["x sort"])
		}
	}
}

// TestTraceEndpointDisabled: without a tracer, /debug/trace 404s instead of
// serving an empty file that looks like "no requests happened".
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tracing disabled: want 404, got %d", resp.StatusCode)
	}
}

// TestRetryAfterOnShed is the satellite regression test: both shed paths
// must carry a Retry-After header derived from the queue depth.
func TestRetryAfterOnShed(t *testing.T) {
	s, ts := testServer(t, serverConfig{MaxInflight: 1, QueueWait: -1})
	s.inflight <- struct{}{} // occupy the only slot
	defer func() { <-s.inflight }()

	resp, _, _ := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("shed_inflight Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	// Deeper queue -> longer hint, clamped at 30s.
	s.waiters.Store(10)
	if got := s.retryAfterSecs(); got != 11 {
		t.Errorf("retryAfterSecs with 10 waiters over 1 slot = %d, want 11", got)
	}
	s.waiters.Store(1000)
	if got := s.retryAfterSecs(); got != 30 {
		t.Errorf("retryAfterSecs clamp = %d, want 30", got)
	}
	s.waiters.Store(0)

	// The memory-shed path carries the header too.
	s2, ts2 := testServer(t, serverConfig{DRAMBudget: 1024})
	_ = s2
	resp2, _, _ := postContract(t, ts2.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 memory shed, got %d", resp2.StatusCode)
	}
	if ra, err := strconv.Atoi(resp2.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("shed_memory Retry-After = %q, want integer >= 1", resp2.Header.Get("Retry-After"))
	}
}

// TestMalformedPutBody: a body that is not a .tns file is a 400 with the
// bad_request outcome counted on the tensors route.
func TestMalformedPutBody(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/tensors/bad",
		strings.NewReader("this is not\na tensor at all\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed PUT: want 400, got %d", resp.StatusCode)
	}
	if n := s.reg.Counter("sptc_serve_requests_total", "", "route", "tensors", "outcome", "bad_request").Value(); n == 0 {
		t.Error("bad_request outcome not counted")
	}
	// The broken upload must not have installed anything.
	resp, err = http.Get(ts.URL + "/tensors/bad")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tensor installed despite malformed body: status %d", resp.StatusCode)
	}
}

// loadSlowPair installs a contraction big enough (~tens of ms) that a
// mid-request cancel lands while the kernel is running.
func loadSlowPair(s *server) contractRequest {
	s.put("slowX", gen.Random([]uint64{300, 300}, 90_000, 11))
	s.put("slowY", gen.Random([]uint64{300, 300}, 90_000, 12))
	return contractRequest{X: "slowX", Y: "slowY", Spec: "ab,bc->ac"}
}

// waitCounter polls a registry counter until it is nonzero or the deadline
// passes (server-side accounting can trail the client's cancel).
func waitCounter(t *testing.T, s *server, outcome string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.reg.Counter("sptc_serve_requests_total", "", "route", "contract", "outcome", outcome).Value() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("outcome %q never counted", outcome)
}

// TestContractTimeout: a 1ms deadline on a heavyweight contraction yields
// 504 and the timeout outcome.
func TestContractTimeout(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	req := loadSlowPair(s)
	req.TimeoutMS = 1
	resp, _, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d", resp.StatusCode)
	}
	waitCounter(t, s, "timeout")
}

// TestClientDisconnect is the satellite error-path test: a client that
// vanishes mid-contraction must produce the canceled outcome and leave no
// goroutines behind.
func TestClientDisconnect(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	req := loadSlowPair(s)
	before := runtime.NumGoroutine()

	// A private transport so idle keep-alive connections (a cancel racing a
	// fast completion parks one: readLoop + writeLoop + the server's conn
	// handler) can be torn down before the leak check.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	const rounds = 3
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(req)
		hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/contract", bytes.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		if resp, err := client.Do(hr); err == nil {
			// The cancel raced a fast completion; still fine, just no signal.
			resp.Body.Close()
		}
		cancel()
	}
	waitCounter(t, s, "canceled")

	// All handler goroutines must drain once the contexts are gone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tr.CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak after canceled requests: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestServeQuantileExposition: the RED histogram exports p50/p95/p99 on
// /metrics — the lines the load generator cross-checks against.
func TestServeQuantileExposition(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for i := 0; i < 3; i++ {
		postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		want := fmt.Sprintf(`sptc_serve_request_seconds_quantile{route="contract",quantile=%q}`, q)
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(text, `sptc_serve_request_seconds_bucket{route="contract",le=`) {
		t.Error("/metrics missing request latency buckets")
	}
}
