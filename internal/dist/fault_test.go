package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
)

// faulty wraps an Executor with injectable failure modes: fail the first N
// Contract calls, hang until the call's context is canceled, or panic. It is
// the "worker killed / worker wedged / worker bug mid-contract" stand-in for
// the in-process fleet.
type faulty struct {
	Executor
	failN  int32         // fail this many calls before recovering
	hang   bool          // block until ctx is done, then return ctx.Err()
	panics bool          // panic with errInjectedPanic
	delay  time.Duration // sleep before contracting (outlast a panicking sibling)
	calls  int32
	done   int32 // calls that returned
}

var errInjectedPanic = errors.New("injected worker panic")

func (f *faulty) Contract(ctx context.Context, x, y *coo.Tensor, job Job) (*coo.Tensor, *core.Report, error) {
	atomic.AddInt32(&f.calls, 1)
	if f.panics {
		panic(errInjectedPanic)
	}
	if f.hang {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	if atomic.AddInt32(&f.failN, -1) >= 0 {
		return nil, nil, errors.New("injected worker crash")
	}
	time.Sleep(f.delay)
	z, rep, err := f.Executor.Contract(ctx, x, y, job)
	atomic.AddInt32(&f.done, 1)
	return z, rep, err
}

func faultFleet(t *testing.T, S int, wrap func(i int, ex Executor) Executor, cfg Config) *Coordinator {
	t.Helper()
	execs := make([]Executor, S)
	for i := range execs {
		var ex Executor = NewLocal(fmt.Sprintf("shard-%d", i), LocalConfig{})
		if wrap != nil {
			ex = wrap(i, ex)
		}
		execs[i] = ex
	}
	cfg.Executors = execs
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestShardRetryFailover kills one worker's first attempt; the coordinator
// must fail over to the next ring shard and still produce output bitwise
// identical to the healthy run.
func TestShardRetryFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tc := randomContractCase(rng, 3, 311)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	want := oneshot(t, tc, opt)

	var crashed *faulty
	c := faultFleet(t, 4, func(i int, ex Executor) Executor {
		if i == 1 {
			crashed = &faulty{Executor: ex, failN: 1}
			return crashed
		}
		return ex
	}, Config{})

	z, rep, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatalf("coordinator did not survive a single worker crash: %v", err)
	}
	requireIdentical(t, "failover", z, want)
	if atomic.LoadInt32(&crashed.calls) == 0 {
		t.Skip("no partition routed to the crashed shard for this case")
	}
	if rep.ShardRetries == 0 {
		t.Error("report shows zero retries despite an injected crash")
	}
}

// TestShardAllAttemptsFail wedges every worker; the coordinator must fail
// cleanly with a *ShardError naming the primary shard and the attempt count —
// the typed error sptc-serve maps to its named shed reason.
func TestShardAllAttemptsFail(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tc := randomContractCase(rng, 3, 331)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}

	c := faultFleet(t, 3, func(i int, ex Executor) Executor {
		return &faulty{Executor: ex, failN: 1 << 20}
	}, Config{MaxAttempts: 2})

	_, _, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
	if err == nil {
		t.Fatal("coordinator succeeded with every worker failing")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *ShardError", err, err)
	}
	if se.Attempts != 2 {
		t.Errorf("ShardError.Attempts = %d, want 2", se.Attempts)
	}
	if se.Shard == "" {
		t.Error("ShardError does not name the primary shard")
	}
	if !errors.Is(err, se.Err) && se.Err == nil {
		t.Error("ShardError does not wrap the underlying cause")
	}
}

// TestShardHangTimesOut wedges one worker forever; the per-attempt timeout
// must cut it loose and fail over to a healthy shard.
func TestShardHangTimesOut(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tc := randomContractCase(rng, 3, 351)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	want := oneshot(t, tc, opt)

	var hung *faulty
	c := faultFleet(t, 4, func(i int, ex Executor) Executor {
		if i == 2 {
			hung = &faulty{Executor: ex, hang: true}
			return hung
		}
		return ex
	}, Config{ShardTimeout: 50 * time.Millisecond})

	start := time.Now()
	z, _, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatalf("coordinator did not survive a hung worker: %v", err)
	}
	requireIdentical(t, "hung worker failover", z, want)
	if atomic.LoadInt32(&hung.calls) > 0 && time.Since(start) > 5*time.Second {
		t.Errorf("request took %v; the hung attempt was not cut by the %v shard timeout",
			time.Since(start), 50*time.Millisecond)
	}
}

// TestShardParentCancellation cancels the request mid-flight: Contract must
// return promptly with the context error (not a shard casualty) and leave no
// goroutine behind.
func TestShardParentCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tc := randomContractCase(rng, 3, 371)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}

	c := faultFleet(t, 4, func(i int, ex Executor) Executor {
		return &faulty{Executor: ex, hang: true}
	}, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Contract(ctx, tc.x, tc.y, tc.cx, tc.cy, opt)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled request returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Contract did not return within 5s of request cancellation")
	}
}

// TestShardNoGoroutineLeak runs healthy, failing, canceled and panicking
// requests and asserts the goroutine count settles back to the baseline —
// the fan-out joins every leg before Contract returns or re-panics.
func TestShardNoGoroutineLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	tc := randomContractCase(rng, 3, 391)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}

	before := runtime.NumGoroutine()

	// Healthy requests.
	c := localFleet(t, 4, LocalConfig{})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt); err != nil {
			t.Fatal(err)
		}
	}
	// All-fail requests.
	cf := faultFleet(t, 4, func(i int, ex Executor) Executor {
		return &faulty{Executor: ex, failN: 1 << 20}
	}, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := cf.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt); err == nil {
			t.Fatal("expected failure")
		}
	}
	// Canceled-midway requests against hung workers.
	ch := faultFleet(t, 4, func(i int, ex Executor) Executor {
		return &faulty{Executor: ex, hang: true}
	}, Config{})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, _, _ = ch.Contract(ctx, tc.x, tc.y, tc.cx, tc.cy, opt)
		cancel()
	}

	// Requests whose shard 0 panics.
	cp, _ := panicFleet(t)
	for i := 0; i < 3; i++ {
		func() {
			defer func() { _ = recover() }()
			_, _, _ = cp.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
		}()
	}

	// Settle: give exiting goroutines a moment to unwind.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: before=%d after=%d", before, runtime.NumGoroutine())
}

// panicFleet is four shards whose first executor panics while the other
// three contract after a short sleep.
func panicFleet(t *testing.T) (*Coordinator, []*faulty) {
	t.Helper()
	fs := make([]*faulty, 4)
	c := faultFleet(t, len(fs), func(i int, ex Executor) Executor {
		fs[i] = &faulty{Executor: ex, panics: i == 0, delay: 5 * time.Millisecond}
		return fs[i]
	}, Config{})
	return c, fs
}

// TestShardPanicReachesCaller: a panic inside one shard's executor does not
// end the process. It reaches the recover of the goroutine that called
// Contract, and only after every other leg has finished its contraction.
func TestShardPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tc := randomContractCase(rng, 3, 431)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	c, fs := panicFleet(t)
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _, _ = c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
		return nil
	}()
	if atomic.LoadInt32(&fs[0].calls) == 0 {
		t.Fatal("test setup: shard 0 received no partition")
	}
	if got != errInjectedPanic {
		t.Fatalf("the caller recovered %v, want the executor's panic", got)
	}
	healthy := 0
	for _, f := range fs[1:] {
		calls, done := atomic.LoadInt32(&f.calls), atomic.LoadInt32(&f.done)
		if calls != done {
			t.Errorf("%s: %d calls, %d returned when the panic reached the caller", f.Name(), calls, done)
		}
		healthy += int(calls)
	}
	if healthy == 0 {
		t.Error("test setup: no healthy leg ran beside the panicking one")
	}
}

// TestShardBackpressure bounds per-shard concurrency: with MaxInflight=1 on
// every shard, concurrent requests still complete and stay identical.
func TestShardBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tc := randomContractCase(rng, 3, 411)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	want := oneshot(t, tc, opt)

	c := localFleet(t, 4, LocalConfig{MaxInflight: 1})
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() {
			z, _, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
			if err == nil && !z.Equal(want) {
				err = errors.New("concurrent sharded output differs from oneshot")
			}
			errs <- err
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
