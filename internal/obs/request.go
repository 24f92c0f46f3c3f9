package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: one ReqTrace per served request threads through
// context into core so every request yields its own span tree — queue wait,
// x order, y prepare, admission, the contraction stages — on a private trace
// track, tagged with the request ID and what the request found prepared. The same ReqTrace accumulates per-phase wall times and string
// tags for the structured access log, so the Chrome trace and the log line
// describe the identical request: the log's request_id resolves to the
// trace's "request" span and its children.
//
// Everything is nil-safe in both directions: a ReqTrace built over a nil
// *Tracer records phases and tags but no trace events (access log without
// tracing), and a nil *ReqTrace no-ops entirely (neither configured), so
// instrumented code never branches on configuration.

// ReqTrace is one request's trace context: a dedicated trace track, the
// phase walls, and the string tags that end up in the access log and on the
// request span's args.
type ReqTrace struct {
	tr    *Tracer
	id    string
	route string
	tid   int32
	start time.Time
	// startNS is the request start relative to the tracer epoch (valid only
	// when tr is non-nil).
	startNS int64

	mu       sync.Mutex
	phases   []PhaseWall
	tags     []arg
	finished bool
}

// PhaseWall is one named interval of a request, for the access log.
type PhaseWall struct {
	Name string
	Dur  time.Duration
}

// reqIDCounter backs the fallback request-ID generator.
var reqIDCounter atomic.Uint64

// NewRequestID returns a 16-hex-character request ID (64 random bits;
// falls back to a time+counter mix if the system randomness source fails).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		v := uint64(time.Now().UnixNano())*2654435761 + reqIDCounter.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// StartRequest opens a request trace on its own track of tr. A nil tracer
// still yields a working ReqTrace (phases and tags only), so the access log
// works with tracing disabled.
func StartRequest(tr *Tracer, route, id string) *ReqTrace {
	rt := &ReqTrace{tr: tr, id: id, route: route, start: time.Now()}
	if tr != nil {
		rt.tid = int32(tr.NewTID())
		rt.startNS = int64(time.Since(tr.epoch))
	}
	return rt
}

// ID returns the request ID ("" on nil).
func (rt *ReqTrace) ID() string {
	if rt == nil {
		return ""
	}
	return rt.id
}

// Route returns the route label the request was started under.
func (rt *ReqTrace) Route() string {
	if rt == nil {
		return ""
	}
	return rt.route
}

// Tracer returns the underlying tracer (nil when tracing is disabled) —
// instrumented layers below the handler use it for stage spans on Track.
func (rt *ReqTrace) Tracer() *Tracer {
	if rt == nil {
		return nil
	}
	return rt.tr
}

// Track returns the request's dedicated trace track.
func (rt *ReqTrace) Track() int {
	if rt == nil {
		return 0
	}
	return int(rt.tid)
}

// PhaseSpan is one in-flight request phase. End records the phase wall and,
// when tracing is live, the span on the request's track. Every StartPhase
// must be paired with an End — the sptc-lint spanleak analyzer enforces
// this statically, exactly as it does for Tracer.Start.
type PhaseSpan struct {
	rt      *ReqTrace
	name    string
	start   time.Time
	startNS int64
}

// StartPhase opens a named phase (e.g. "queue wait", "y prepare").
func (rt *ReqTrace) StartPhase(name string) PhaseSpan {
	if rt == nil {
		return PhaseSpan{}
	}
	ps := PhaseSpan{rt: rt, name: name, start: time.Now()}
	if rt.tr != nil {
		ps.startNS = int64(time.Since(rt.tr.epoch))
	}
	return ps
}

// End closes the phase.
func (ps PhaseSpan) End() {
	if ps.rt == nil {
		return
	}
	d := time.Since(ps.start)
	ps.rt.mu.Lock()
	ps.rt.phases = append(ps.rt.phases, PhaseWall{Name: ps.name, Dur: d})
	ps.rt.mu.Unlock()
	if tr := ps.rt.tr; tr != nil {
		end := int64(time.Since(tr.epoch))
		if end < ps.startNS {
			end = ps.startNS
		}
		tr.appendSpan(ps.name, ps.rt.tid, ps.startNS, end, nil)
	}
}

// AddPhase injects an externally measured interval (e.g. the per-stage walls
// a core Report carries) into the phase list, so the access log can break a
// contraction down below span granularity.
func (rt *ReqTrace) AddPhase(name string, d time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.phases = append(rt.phases, PhaseWall{Name: name, Dur: d})
	rt.mu.Unlock()
}

// SetTag attaches a string tag (plan fingerprint, outcome, hty_reused…).
// Later values win for a repeated key.
func (rt *ReqTrace) SetTag(k, v string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	for i := range rt.tags {
		if rt.tags[i].k == k {
			rt.tags[i].v = v
			rt.mu.Unlock()
			return
		}
	}
	rt.tags = append(rt.tags, arg{k, v})
	rt.mu.Unlock()
}

// Phases returns a copy of the recorded phase walls, in recording order.
func (rt *ReqTrace) Phases() []PhaseWall {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]PhaseWall(nil), rt.phases...)
}

// Tags returns the tags as a map copy.
func (rt *ReqTrace) Tags() map[string]string {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := make(map[string]string, len(rt.tags))
	for _, a := range rt.tags {
		if s, ok := a.v.(string); ok {
			m[a.k] = s
		}
	}
	return m
}

// Finish closes the request: the outer "request" span covering the whole
// lifetime lands on the request's track with the request ID, route, and
// every tag as span args. Returns the request wall time. Idempotent — the
// second Finish only reads the wall.
func (rt *ReqTrace) Finish() time.Duration {
	if rt == nil {
		return 0
	}
	d := time.Since(rt.start)
	rt.mu.Lock()
	if rt.finished {
		rt.mu.Unlock()
		return d
	}
	rt.finished = true
	args := make([]arg, 0, 2+len(rt.tags))
	args = append(args, arg{"request_id", rt.id}, arg{"route", rt.route})
	args = append(args, rt.tags...)
	rt.mu.Unlock()
	if tr := rt.tr; tr != nil {
		end := int64(time.Since(tr.epoch))
		if end < rt.startNS {
			end = rt.startNS
		}
		tr.appendSpan("request", rt.tid, rt.startNS, end, args)
	}
	return d
}

// reqKey keys the ReqTrace in a context. reqKeyVal is the key pre-boxed
// into an interface: passing reqKey{} to Value directly boxes at every
// call site, which the hot-path escape budget (sptc-lint -perf) would
// charge to core.traceTarget after inlining.
type reqKey struct{}

var reqKeyVal any = reqKey{}

// WithReq returns ctx carrying rt (ctx unchanged when rt is nil).
func WithReq(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, reqKeyVal, rt)
}

// DetachReq returns ctx without its request trace (ctx unchanged when none
// is attached). The sharded coordinator's fan-out legs run concurrently, and
// core's stage spans assume exclusive ownership of the request's trace track
// — so each leg detaches the trace and the coordinator folds the per-shard
// walls back onto the parent as summary phases (AddPhase is mutex-guarded
// and safe from the gather goroutines).
func DetachReq(ctx context.Context) context.Context {
	if ReqFrom(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, reqKeyVal, (*ReqTrace)(nil))
}

// ReqFrom extracts the request trace from ctx (nil when absent). Layers
// below the HTTP handler — the engine's prepare path, core's stage spans —
// consult this so per-request span trees need no extra plumbing through
// Options.
func ReqFrom(ctx context.Context) *ReqTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(reqKeyVal).(*ReqTrace)
	return rt
}
