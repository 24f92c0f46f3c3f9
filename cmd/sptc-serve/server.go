package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dist"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
	"sparta/internal/hetmem"
	"sparta/internal/obs"
	"sparta/internal/parallel"
)

// serverConfig sizes one server instance (all fields optional; zero values
// mean "default/disabled" as documented on the flags).
type serverConfig struct {
	Threads     int
	DRAMBudget  uint64
	MaxInflight int
	QueueWait   time.Duration
	// Tracer, when non-nil, records one span tree per request on a private
	// track (exported at /debug/trace and by -trace on shutdown).
	Tracer *obs.Tracer
	// AccessLog, when non-nil, receives one JSON line per tensor/contract
	// request (request ID, status, outcome, per-phase walls, tags).
	AccessLog io.Writer

	// ShardURLs lists remote worker base URLs; when non-empty, contractions
	// run sharded across them (DESIGN.md §15).
	ShardURLs []string
	// ShardTimeout caps each shard attempt (0 = no per-attempt timeout).
	ShardTimeout time.Duration
	// ShardRetries is the executor attempt count per shard including the
	// primary (0 = coordinator default: primary plus one failover).
	ShardRetries int
}

// server is the HTTP front end: a tensor store that keeps each operand's
// stage ① beside it, and the two admission gates. All handler state is safe
// for concurrent use.
type server struct {
	reg     *obs.Registry
	adm     engine.Admission
	threads int

	queueWait time.Duration
	inflight  chan struct{} // counting semaphore; nil = unbounded
	// waiters counts requests currently blocked on an inflight slot — the
	// queue depth the Retry-After header is derived from.
	waiters atomic.Int64

	tracer   *obs.Tracer
	accessMu sync.Mutex
	accessW  io.Writer

	// admMu serializes admission decisions so concurrent requests cannot
	// jointly oversubscribe the budget; admitted holds the summed admitted
	// footprints currently running.
	admMu    sync.Mutex
	admitted uint64

	// coord, when non-nil, executes contractions sharded across remote
	// workers instead of in this process.
	coord *dist.Coordinator

	mu      sync.RWMutex
	tensors map[string]*operand

	inflightN atomic.Int64 // backs the gauge (obs gauges have no atomic add)
	gInflight *obs.Gauge
}

func newServer(cfg serverConfig) *server {
	reg := obs.NewRegistry()
	threads := cfg.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	s := &server{
		reg:       reg,
		adm:       engine.Admission{DRAMBudget: cfg.DRAMBudget},
		threads:   threads,
		queueWait: cfg.QueueWait,
		tracer:    cfg.Tracer,
		accessW:   cfg.AccessLog,
		tensors:   map[string]*operand{},
		gInflight: reg.Gauge("sptc_serve_inflight", "contractions currently executing"),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if len(cfg.ShardURLs) > 0 {
		execs := make([]dist.Executor, len(cfg.ShardURLs))
		for i, u := range cfg.ShardURLs {
			execs[i] = dist.NewHTTP(u, dist.HTTPConfig{})
		}
		// Executor names are the URLs; NewCoordinator fails only on a
		// duplicate, which then runs unsharded.
		s.coord, _ = dist.NewCoordinator(dist.Config{
			Executors:    execs,
			ShardTimeout: cfg.ShardTimeout,
			MaxAttempts:  cfg.ShardRetries,
			Metrics:      reg,
		})
	}
	return s
}

// loadDemo installs two synthetic contractible tensors (demoA: 40x30x50,
// demoB: 50x35x20; spec "abc,cde->abde") for smoke tests.
func (s *server) loadDemo() {
	s.put("demoA", gen.Random([]uint64{40, 30, 50}, 4000, 1))
	s.put("demoB", gen.Random([]uint64{50, 35, 20}, 3000, 2))
}

// operand is a stored tensor with what the store has learned about it, so
// that no request works it out again. An operand is immutable: a request
// that prepares t as X or as Y publishes a new operand in its place
// (preparedX, preparedY), and a PUT replaces the whole thing.
type operand struct {
	t  *coo.Tensor
	fp engine.Fingerprint // of t, taken once at PUT; row order does not change it
	// px is stage ① of t as the X of a contraction over px.CmodesX(), nil
	// until a request asks for one. Its rows are t's: px.Tensor() == t.
	px *core.PreparedX
	// py is stage ① of t as the Y of a contraction over cmodesY — its HtY —
	// nil until a request asks for one.
	py      *core.PreparedY
	cmodesY []int
}

// put stores t under name, replacing whatever was there.
func (s *server) put(name string, t *coo.Tensor) *operand {
	op := &operand{t: t, fp: engine.FingerprintTensor(t, s.threads)}
	s.mu.Lock()
	s.tensors[name] = op
	s.mu.Unlock()
	return op
}

// publish stores kept under name in place of read, the operand a request
// read there: a compare-and-swap, so a PUT of the same name in the meantime
// wins, and the request still computes from what it read.
func (s *server) publish(name string, read, kept *operand) {
	s.mu.Lock()
	if s.tensors[name] == read {
		s.tensors[name] = kept
	}
	s.mu.Unlock()
}

// preparedX returns x, stored under name, as an operand whose px prepares it
// as the X of a contraction over cmodesX, and whether the store already held
// that. On a miss it runs stage ① and leaves the result in the store in x's
// place — the tensor swapped for the one with its rows in contraction order,
// not kept beside it, so the store still holds one copy of each tensor plus
// 8 B a sub-tensor of index — and the next request with the same contract
// modes starts at stage ②. One prepared form per name: two specs that want
// different orders of one X alternate and pay what every request paid
// before.
//
// Row order is not observable through the API — GET /tensors reports dims,
// nnz and the order-independent fingerprint — and the reorder is stable, so
// every later reply is bitwise what x would have given; a box too wide for
// LN keys has no stable sorter and is prepared per request, never stored.
// The prepared Y, if any, rides across the swap: the stable reorder keeps
// the relative order of duplicate coordinates, the only rows whose order
// its table records.
func (s *server) preparedX(ctx context.Context, name string, x *operand, cmodesX []int, opt core.Options) (*operand, bool, error) {
	if x.px != nil && slices.Equal(x.px.CmodesX(), cmodesX) {
		return x, true, nil
	}
	px, err := core.PrepareX(ctx, x.t, cmodesX, opt)
	if err != nil {
		return nil, false, err
	}
	kept := &operand{t: px.Tensor(), fp: x.fp, px: px, py: x.py, cmodesY: x.cmodesY}
	if px.Stable() {
		s.publish(name, x, kept)
	}
	return kept, false, nil
}

// preparedY returns y, stored under name, prepared as the Y of a contraction
// over cmodesY — stage ①'s HtY build — by the rule preparedX follows: one
// table per name, for the contract modes asked for last, published in y's
// place beside its rows and prepared X, and gone when a PUT replaces the
// name. A stored tensor cannot change, so the table needs no fingerprint to
// be found again; two specs that contract different modes of one Y
// alternate and rebuild it on each switch. The table's first contraction
// reports the build and every later one hty_reused (core.PreparedY).
//
// The lookup, and the build on a miss, are the request's "y prepare" phase;
// the outcome is its y_prepared tag and sptc_serve_y_prepared_total.
func (s *server) preparedY(ctx context.Context, name string, y *operand, cmodesY []int, opt core.Options) (*core.PreparedY, error) {
	rt := obs.ReqFrom(ctx)
	sp := rt.StartPhase("y prepare")
	py, hit := y.py, y.py != nil && slices.Equal(y.cmodesY, cmodesY)
	var err error
	if !hit {
		py, err = core.PrepareY(y.t, cmodesY, opt)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	if !hit {
		s.publish(name, y, &operand{t: y.t, fp: y.fp, px: y.px, py: py, cmodesY: slices.Clone(cmodesY)})
	}
	s.reg.Counter("sptc_serve_y_prepared_total", "requests by whether the store held Y prepared for the spec",
		"outcome", outcomeOf(hit)).Inc()
	rt.SetTag("y_prepared", strconv.FormatBool(hit))
	return py, nil
}

// outcomeOf names a store lookup's outcome for the prepared-operand counters.
func outcomeOf(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handler builds the route table on top of the obs exposition mux, so
// /metrics, /debug/pprof, and /debug/vars ride along.
func (s *server) handler() http.Handler {
	mux := obs.NewMux(s.reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("PUT /tensors/{name}", s.instrumented("tensors", s.handlePutTensor))
	mux.HandleFunc("GET /tensors/{name}", s.instrumented("tensors", s.handleGetTensor))
	mux.HandleFunc("POST /contract", s.instrumented("contract", s.handleContract))
	mux.HandleFunc("POST /shard/contract", s.instrumented("shard", s.handleShardContract))
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// statusWriter captures the status code for the access log and RED metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a handler with the request lifecycle: assign (or adopt
// from X-Request-ID) a request ID, open a ReqTrace on a private trace track,
// thread it through the context so engine and core phases land on it, then
// observe the wall into the RED histogram and emit one access-log line.
func (s *server) instrumented(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rt := obs.StartRequest(s.tracer, route, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(obs.WithReq(r.Context(), rt)))
		wall := time.Since(start)
		s.reg.Histogram("sptc_serve_request_seconds", "request wall time by route",
			obs.LatencyBuckets, "route", route).Observe(wall.Seconds())
		rt.Finish()
		s.writeAccess(rt, r, sw.status, wall)
	}
}

// accessLine is one structured access-log record: everything needed to find
// the request again — its ID resolves to a span tree in the Chrome trace —
// plus the per-phase walls so slow requests are attributable without the
// trace at all.
type accessLine struct {
	TS        string            `json:"ts"`
	RequestID string            `json:"request_id"`
	Route     string            `json:"route"`
	Method    string            `json:"method"`
	Path      string            `json:"path"`
	Status    int               `json:"status"`
	WallNS    int64             `json:"wall_ns"`
	Phases    map[string]int64  `json:"phases,omitempty"`
	Tags      map[string]string `json:"tags,omitempty"`
}

func (s *server) writeAccess(rt *obs.ReqTrace, r *http.Request, status int, wall time.Duration) {
	if s.accessW == nil {
		return
	}
	line := accessLine{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: rt.ID(),
		Route:     rt.Route(),
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    status,
		WallNS:    wall.Nanoseconds(),
		Tags:      rt.Tags(),
	}
	if ph := rt.Phases(); len(ph) > 0 {
		line.Phases = make(map[string]int64, len(ph))
		for _, p := range ph {
			line.Phases[p.Name] += p.Dur.Nanoseconds() // repeated phases sum
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.accessMu.Lock()
	_, _ = s.accessW.Write(buf)
	s.accessMu.Unlock()
}

// handleTrace serves the accumulated Chrome trace (load into Perfetto or
// chrome://tracing; each request is one track named by its request ID's
// span tree).
func (s *server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (start with -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.tracer.WriteJSON(w)
}

// countReq folds one request outcome into the metrics registry and tags it
// onto the request trace so the access log carries it too. Shed outcomes
// additionally feed the by-reason shed counter the load generator reads.
func (s *server) countReq(r *http.Request, route, outcome string) {
	s.reg.Counter("sptc_serve_requests_total", "requests by route and outcome",
		"route", route, "outcome", outcome).Inc()
	if reason, ok := strings.CutPrefix(outcome, "shed_"); ok {
		s.reg.Counter("sptc_serve_shed_total", "requests shed by reason",
			"reason", reason).Inc()
	}
	obs.ReqFrom(r.Context()).SetTag("outcome", outcome)
}

// retryAfterSecs derives the Retry-After hint on 503s from the current queue
// depth: with W requests already waiting for one of C slots, a newcomer's
// expected wait is on the order of W/C service times, clamped to [1, 30]s.
func (s *server) retryAfterSecs() int {
	c := 1
	if s.inflight != nil {
		c = cap(s.inflight)
	}
	secs := 1 + int(s.waiters.Load())/c
	if secs > 30 {
		secs = 30
	}
	return secs
}

// shed writes a 503 with the Retry-After hint and records the outcome.
func (s *server) shed(w http.ResponseWriter, r *http.Request, outcome, msg string) {
	s.countReq(r, "contract", outcome)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The connection is gone if this fails; nothing useful to do.
	_ = json.NewEncoder(w).Encode(v)
}

type errorReply struct {
	Error string `json:"error"`
}

// tensorInfo is the metadata reply for uploads and GETs.
type tensorInfo struct {
	Name        string   `json:"name"`
	Order       int      `json:"order"`
	Dims        []uint64 `json:"dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
}

func infoFor(name string, op *operand) tensorInfo {
	return tensorInfo{
		Name:        name,
		Order:       op.t.Order(),
		Dims:        op.t.Dims,
		NNZ:         op.t.NNZ(),
		Fingerprint: op.fp.String(),
	}
}

func (s *server) handlePutTensor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Sniff the body: binary SPTN uploads (the dist executor's Y replication
	// path) start with the magic; everything else parses as FROSTT .tns text.
	br := bufio.NewReader(r.Body)
	var t *coo.Tensor
	var err error
	if head, _ := br.Peek(4); string(head) == "SPTN" {
		t, err = coo.ReadBin(br)
	} else {
		t, err = coo.ReadTNS(br)
	}
	if err != nil {
		s.countReq(r, "tensors", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	op := s.put(name, t)
	s.countReq(r, "tensors", "ok")
	writeJSON(w, http.StatusOK, infoFor(name, op))
}

func (s *server) handleGetTensor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	op, ok := s.tensors[name]
	s.mu.RUnlock()
	if !ok {
		s.countReq(r, "tensors", "not_found")
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("no tensor %q", name)})
		return
	}
	s.countReq(r, "tensors", "ok")
	writeJSON(w, http.StatusOK, infoFor(name, op))
}

// contractRequest is the POST /contract body. The server contracts with
// Sparta only: Algorithm is decoded to refuse it, so that no request reaches
// the paper's baselines, which have no memory gate in front of them.
type contractRequest struct {
	X         string `json:"x"`
	Y         string `json:"y"`
	Spec      string `json:"spec"`
	Algorithm string `json:"algorithm"`
	Threads   int    `json:"threads"`
	TimeoutMS int    `json:"timeout_ms"`
}

type contractReply struct {
	RequestID   string   `json:"request_id,omitempty"`
	Spec        string   `json:"spec"`
	OutDims     []uint64 `json:"out_dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
	// HtYReused is false on the first contraction of the stored Y's table
	// for these contract modes, which built it, and true on every later one.
	HtYReused bool  `json:"hty_reused"`
	WallNS    int64 `json:"wall_ns"`
	// XPrepared is true when the store already held X prepared for this
	// spec's contract modes, so the request began at the first HtY probe.
	XPrepared bool `json:"x_prepared,omitempty"`
	// ExecutionTier reports which path ran: "dram" (in-memory fast path),
	// "streamed" (windowed degrade tier) or "sharded". Clients watching for
	// capacity pressure alert on the streamed fraction instead of on 503s.
	ExecutionTier string `json:"execution_tier,omitempty"`
	// Windows is the streamed window count (0 on the dram tier).
	Windows int `json:"windows,omitempty"`
	// DenseSubs is how many X sub-tensors the kernel accumulated in its
	// direct-indexed array instead of the hash accumulator (0 when the
	// free-Y space is large or sparsely filled; core.Report.DenseSubs).
	DenseSubs uint64 `json:"dense_subs,omitempty"`
	// Shards / ShardRetries report the scatter/gather fan-out when the server
	// runs in sharded mode (-shards): how many shard legs were dispatched and
	// how many failover attempts they consumed.
	Shards       int `json:"shards,omitempty"`
	ShardRetries int `json:"shard_retries,omitempty"`
}

// acquireSlot takes an inflight slot, waiting up to queueWait. It reports
// whether the slot was obtained; the caller must releaseSlot on true.
func (s *server) acquireSlot(ctx context.Context) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.queueWait <= 0 {
		return false
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	timer := time.NewTimer(s.queueWait)
	defer timer.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (s *server) releaseSlot() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// maxContractBody caps the POST /contract body: three tensor names, a spec
// and a few scalars.
const maxContractBody = 1 << 20

func (s *server) handleContract(w http.ResponseWriter, r *http.Request) {
	var req contractRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxContractBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.countReq(r, "contract", "too_large")
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorReply{Error: fmt.Sprintf("request body exceeds %d bytes", maxContractBody)})
			return
		}
		s.countReq(r, "contract", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad JSON: " + err.Error()})
		return
	}
	if err := s.contract(w, r, req); err != nil {
		s.countReq(r, "contract", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
	}
}

// contract runs the admission gates and the contraction; it returns an
// error only for bad requests (the caller writes 400), and writes every
// other reply itself.
func (s *server) contract(w http.ResponseWriter, r *http.Request, req contractRequest) error {
	if req.Algorithm != "" {
		return fmt.Errorf("field \"algorithm\" is not accepted: the server contracts with %v only", core.AlgSparta)
	}
	rt := obs.ReqFrom(r.Context())
	rt.SetTag("spec", req.Spec)
	rt.SetTag("x", req.X)
	rt.SetTag("y", req.Y)

	s.mu.RLock()
	x, okX := s.tensors[req.X]
	y, okY := s.tensors[req.Y]
	s.mu.RUnlock()
	if !okX {
		return fmt.Errorf("no tensor %q", req.X)
	}
	if !okY {
		return fmt.Errorf("no tensor %q", req.Y)
	}
	ein, err := einsum.Parse(req.Spec)
	if err != nil {
		return err
	}
	if err := ein.CheckRanks(req.Spec, x.t.Order(), y.t.Order()); err != nil {
		return err
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	// The server's own -threads bounds every request: the worker arena is
	// sized by the thread count before anything else sees it.
	threads := req.Threads
	if threads < 1 || threads > s.threads {
		threads = s.threads
	}
	rt.SetTag("threads", strconv.Itoa(threads))
	opt := core.Options{Threads: threads, Metrics: s.reg}

	// Gate 1: concurrency. Queue briefly, then shed.
	spQ := rt.StartPhase("queue wait")
	got := s.acquireSlot(ctx)
	spQ.End()
	if !got {
		s.shed(w, r, "shed_inflight", "server at max inflight contractions")
		return nil
	}
	defer s.releaseSlot()
	s.gInflight.Set(float64(s.inflightN.Add(1)))
	defer func() { s.gInflight.Set(float64(s.inflightN.Add(-1))) }()

	// Stage ① for X, once per operand: every tier contracts the prepared
	// form (the sharded one scatters its rows, which are in contraction
	// order).
	spO := rt.StartPhase("x order")
	stage1 := time.Now()
	x, hit, err := s.preparedX(ctx, req.X, x, ein.CmodesX, opt)
	spO.End()
	if err != nil {
		return err
	}
	px := x.px
	if req.Y == req.X {
		y = x // so that Y's table is published beside the X just swapped in
	}
	s.reg.Counter("sptc_serve_x_prepared_total", "contract requests by whether the store held X prepared for the spec",
		"outcome", outcomeOf(hit)).Inc()
	rt.SetTag("x_prepared", strconv.FormatBool(hit))

	// Stage ① for Y, once per operand, unless the shards build their own.
	var py *core.PreparedY
	if s.coord == nil {
		if py, err = s.preparedY(ctx, req.Y, y, ein.CmodesY, opt); err != nil {
			return err
		}
	}
	prepared := time.Since(stage1) // contraction work: counted into wall_ns

	// Gate 2: memory, which picks the tier.
	spA := rt.StartPhase("admission")
	tier, release, err := s.admit(ctx, ein, x.t, py, opt)
	spA.End()
	if err != nil {
		return err
	}
	defer release()
	rt.SetTag("execution_tier", tier.name)
	s.reg.Counter("sptc_serve_tier_total", "contract requests by execution tier",
		"tier", tier.name).Inc()
	if tier.name == engine.TierShed.String() {
		s.shed(w, r, "shed_memory",
			"estimated footprint exceeds DRAM budget (prepared table ht_Y alone does not fit)")
		return nil
	}

	start := time.Now()
	spC := rt.StartPhase("contract")
	var (
		z   *coo.Tensor
		rep *core.Report
	)
	switch tier.name {
	case "sharded":
		z, rep, err = s.coord.Contract(ctx, px.Tensor(), y.t, ein.CmodesX, ein.CmodesY, opt)
	case engine.TierStreamed.String():
		// A spec that permutes the output re-sorts Z below, which copies
		// every column to the heap anyway, so Z spills only for
		// identity-output specs.
		z, rep, err = core.ContractStreamX(ctx, px, tier.res.WindowNNZ, py, core.StreamOptions{
			Options: opt,
			SpillZ:  tier.res.SpillZ && ein.IdentityOut,
		})
	default:
		z, rep, err = py.ContractX(ctx, px, opt)
	}
	if err == nil {
		err = ein.Output(z, true, threads)
	}
	spC.End()
	var se *dist.ShardError
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.countReq(r, "contract", "timeout")
		writeJSON(w, http.StatusGatewayTimeout, errorReply{Error: err.Error()})
		return nil
	case errors.Is(err, context.Canceled):
		s.countReq(r, "contract", "canceled")
		// The client is gone; status is moot but 499-style close is not
		// expressible, so use 503.
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return nil
	case errors.As(err, &se):
		// Every failover attempt for some shard failed: the fleet cannot
		// serve this request right now. Named shed reason, retryable 503.
		s.shed(w, r, "shed_shards",
			fmt.Sprintf("shard %s failed after %d attempts: %v", se.Shard, se.Attempts, se.Err))
		return nil
	default:
		return err
	}

	// Fold the kernel's own stage timings into the request record: the span
	// tree shows them as core spans; the access log gets them as phases.
	rt.AddPhase("stage_input", rep.StageWall[core.StageInput])
	rt.AddPhase("stage_search", rep.StageWall[core.StageSearch])
	rt.AddPhase("stage_accum", rep.StageWall[core.StageAccum])
	rt.AddPhase("stage_write", rep.StageWall[core.StageWrite])
	rt.AddPhase("stage_sort", rep.StageWall[core.StageSort])
	rt.SetTag("hty_reused", strconv.FormatBool(rep.HtYReused))
	rt.SetTag("nnz_z", strconv.Itoa(z.NNZ()))
	if rep.Streamed {
		rt.SetTag("windows", strconv.Itoa(rep.Windows))
	}

	s.countReq(r, "contract", "ok")
	s.reg.Histogram("sptc_serve_contract_seconds", "contraction wall time",
		[]float64{0.001, 0.01, 0.1, 1, 10}).Observe((time.Since(start) + prepared).Seconds())
	writeJSON(w, http.StatusOK, contractReply{
		RequestID:     rt.ID(),
		Spec:          req.Spec,
		OutDims:       z.Dims,
		NNZ:           z.NNZ(),
		Fingerprint:   engine.FingerprintTensor(z, threads).String(),
		HtYReused:     rep.HtYReused,
		XPrepared:     hit,
		WallNS:        (time.Since(start) + prepared).Nanoseconds(),
		ExecutionTier: tier.name,
		Windows:       rep.Windows,
		DenseSubs:     rep.DenseSubs,
		Shards:        rep.Shards,
		ShardRetries:  rep.ShardRetries,
	})
	return nil
}

// handleShardContract is the worker side of the coordinator→worker hop: the
// shard's X partition arrives as a binary SPTN body, Y is referenced by the
// name the executor registered it under, and the reply is binary Z plus the
// full core report in the X-Sptc-Report header. The request ID arrives via
// X-Request-ID, so this span tree joins the coordinator's request.
func (s *server) handleShardContract(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, msg string) {
		s.countReq(r, "shard", "bad_request")
		writeJSON(w, status, errorReply{Error: msg})
	}
	q := r.URL.Query()
	yName := q.Get("y")
	s.mu.RLock()
	y, okY := s.tensors[yName]
	s.mu.RUnlock()
	if !okY {
		fail(http.StatusNotFound, fmt.Sprintf("no tensor %q", yName))
		return
	}
	cx, err := dist.ParseModesCSV(q.Get("cx"))
	if err != nil {
		fail(http.StatusBadRequest, "cx: "+err.Error())
		return
	}
	cy, err := dist.ParseModesCSV(q.Get("cy"))
	if err != nil {
		fail(http.StatusBadRequest, "cy: "+err.Error())
		return
	}
	threads := s.threads
	if ts := q.Get("threads"); ts != "" {
		if threads, err = strconv.Atoi(ts); err != nil || threads < 1 {
			fail(http.StatusBadRequest, "bad threads value")
			return
		}
		threads = min(threads, s.threads)
	}
	x, err := coo.ReadBin(r.Body)
	if err != nil {
		fail(http.StatusBadRequest, "decoding X: "+err.Error())
		return
	}

	ctx := r.Context()
	rt := obs.ReqFrom(ctx)
	rt.SetTag("y", yName)
	opt := core.Options{
		Threads: threads,
		Metrics: s.reg,
		// The partition is request-local: let the contraction permute it in place.
		InPlace: true,
	}
	py, err := s.preparedY(ctx, yName, y, cy, opt)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	z, rep, err := py.Contract(ctx, x, cx, opt)
	if err != nil {
		s.countReq(r, "shard", "error")
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorReply{Error: err.Error()})
		return
	}
	rt.SetTag("nnz_z", strconv.Itoa(z.NNZ()))
	s.countReq(r, "shard", "ok")
	if buf, err := json.Marshal(rep); err == nil {
		w.Header().Set("X-Sptc-Report", string(buf))
	}
	w.Header().Set("Content-Type", "application/x-sptn")
	// The connection is gone if this fails; nothing useful to do.
	_ = z.WriteBin(w)
}

// tier is how an admitted request runs: name is the reply's execution_tier
// ("dram", "streamed", "sharded", or "shed" for one that does not run), and
// the streamed tier carries the window size and Z spill the residency plan
// picked.
type tier struct {
	name string
	res  hetmem.Residency
}

// admit runs the DRAM admission gate and assigns the execution tier: the
// in-memory path when everything fits (or admission is off), the windowed
// one when the prepared table py fits but the full working set does not, and
// shedding only for a table that cannot fit at all. A server that fronts a
// shard fleet shards every request instead: each shard sees only its
// partition (~1/S of X), and the workers run their own gates and shed
// upstream. release is always non-nil.
func (s *server) admit(ctx context.Context, ein *einsum.Plan, x *coo.Tensor, py *core.PreparedY, opt core.Options) (t tier, release func(), err error) {
	release = func() {}
	if s.coord != nil {
		return tier{name: "sharded"}, release, nil
	}
	if s.adm.DRAMBudget == 0 {
		return tier{name: engine.TierDRAM.String()}, release, nil
	}
	if err := ctx.Err(); err != nil {
		return t, release, err
	}
	fp := engine.EstimateFootprint(x.NNZ(), py)
	s.admMu.Lock()
	planned, res := s.adm.Plan(fp, opt.Threads, x.NNZ(), s.admitted)
	// A fully contracted X is one sub-tensor spanning everything, so one
	// window, which bounds nothing: it either fits whole or is shed.
	if planned == engine.TierStreamed && len(ein.CmodesX) >= x.Order() {
		planned = engine.TierShed
	}
	t = tier{name: planned.String(), res: res}
	if planned == engine.TierShed {
		s.admMu.Unlock()
		return t, release, nil
	}
	// Streamed requests account only their windowed resident demand — the
	// point of the degrade tier is that concurrent work can still fit.
	total := fp.Total(opt.Threads)
	if planned == engine.TierStreamed {
		total = fp.WindowedTotal(opt.Threads, res.WindowNNZ, x.NNZ())
	}
	s.admitted += total
	s.admMu.Unlock()
	return t, func() {
		s.admMu.Lock()
		s.admitted -= total
		s.admMu.Unlock()
	}, nil
}
