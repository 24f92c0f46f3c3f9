package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClamp(t *testing.T) {
	if Clamp(0, 10) < 1 {
		t.Fatal("Clamp(0, ...) must be >= 1")
	}
	if got := Clamp(8, 3); got != 3 {
		t.Fatalf("Clamp(8,3) = %d", got)
	}
	if got := Clamp(2, 0); got != 1 {
		t.Fatalf("Clamp(2,0) = %d", got)
	}
}

func TestForCoversRangeExactly(t *testing.T) {
	for _, threads := range []int{1, 3, 7} {
		for _, n := range []int{0, 1, 5, 100, 101} {
			hits := make([]int32, n)
			For(threads, n, func(tid, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d hit %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestForTidsDistinct(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	For(4, 100, func(tid, lo, hi int) {
		mu.Lock()
		if seen[tid] {
			mu.Unlock()
			t.Errorf("tid %d reused", tid)
			return
		}
		seen[tid] = true
		mu.Unlock()
	})
}

func TestForChunkedCoversRangeExactly(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, chunk := range []int{0, 1, 7, 1000} {
			n := 523
			hits := make([]int32, n)
			ForChunked(threads, n, chunk, func(tid, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d chunk=%d: index %d hit %d times", threads, chunk, i, h)
				}
			}
		}
	}
}

func TestForChunkedZero(t *testing.T) {
	called := false
	ForChunked(4, 0, 1, func(tid, lo, hi int) {
		if lo < hi {
			called = true
		}
	})
	if called {
		t.Fatal("body called with non-empty range for n=0")
	}
}

func TestClampWork(t *testing.T) {
	if got := ClampWork(4, 100, MinParallelWork-1); got != 1 {
		t.Fatalf("ClampWork below floor = %d, want 1", got)
	}
	if got := ClampWork(4, 100, MinParallelWork); got != 4 {
		t.Fatalf("ClampWork at floor = %d, want 4", got)
	}
	if got := ClampWork(4, 100, -1); got != 4 {
		t.Fatalf("ClampWork unknown work = %d, want 4 (no short-circuit)", got)
	}
	if got := ClampWork(4, 2, MinParallelWork); got != 2 {
		t.Fatalf("ClampWork still clamps to n: got %d, want 2", got)
	}
}

// TestForChunkedWorkSerialFallback is the regression guard for the
// tiny-contraction case: below the work floor, the body must run on a single
// worker (tid 0) and strictly in order — no goroutine hand-off at all.
func TestForChunkedWorkSerialFallback(t *testing.T) {
	var order []int
	ForChunkedWork(8, 64, 1, MinParallelWork-1, func(tid, lo, hi int) {
		if tid != 0 {
			t.Fatalf("tiny work ran on tid %d, want 0", tid)
		}
		order = append(order, lo)
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("tiny work ran out of order: %v", order)
		}
	}
	// Above the floor the range must still be covered exactly.
	hits := make([]int32, 523)
	ForChunkedWork(4, len(hits), 7, MinParallelWork, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

// BenchmarkForChunkedTiny guards the satellite fix itself: scheduling a
// tiny loop through ForChunkedWork must stay within a few times the cost of
// the bare serial loop (it previously paid goroutine+counter overhead).
func BenchmarkForChunkedTiny(b *testing.B) {
	sink := make([]int32, 64)
	b.Run("work-clamped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForChunkedWork(4, len(sink), 1, int64(len(sink)), func(_, lo, hi int) {
				for j := lo; j < hi; j++ {
					sink[j]++
				}
			})
		}
	})
	b.Run("unclamped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForChunked(4, len(sink), 1, func(_, lo, hi int) {
				for j := lo; j < hi; j++ {
					atomic.AddInt32(&sink[j], 1)
				}
			})
		}
	})
}

// TestWorkerPanicReachesCaller: a panic in one worker of For or
// ForChunkedCtx is re-raised on the calling goroutine, where recover sees
// the value, and only after every other worker has returned.
func TestWorkerPanicReachesCaller(t *testing.T) {
	const threads = 4
	cases := map[string]func(body func(i int)){
		"For": func(body func(int)) {
			For(threads, 64, func(tid, _, _ int) { body(tid) })
		},
		"ForChunkedCtx": func(body func(int)) {
			_ = ForChunkedCtx(context.Background(), threads, 64, 1, func(_, lo, _ int) { body(lo) })
		},
	}
	for name, run := range cases {
		var running, finished atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			run(func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 0 {
					panic("boom")
				}
				time.Sleep(time.Millisecond) // outlast the panicking worker
				finished.Add(1)
			})
			return nil
		}()
		if got != "boom" {
			t.Errorf("%s: the caller recovered %v, want the worker's panic", name, got)
		}
		if n := running.Load(); n != 0 || finished.Load() == 0 {
			t.Errorf("%s: %d workers still running when the panic reached the caller, %d finished",
				name, n, finished.Load())
		}
	}
}

func TestPrefixSum(t *testing.T) {
	offs, total := PrefixSum([]int{3, 0, 5, 2})
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int{0, 3, 3, 8}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offs = %v", offs)
		}
	}
	offs, total = PrefixSum(nil)
	if total != 0 || len(offs) != 0 {
		t.Fatal("empty prefix sum broken")
	}
}
