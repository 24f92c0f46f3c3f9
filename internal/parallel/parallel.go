// Package parallel provides the thread-pool primitives shared by all Sparta
// stages: static range partitioning (For) and dynamic chunked scheduling
// (ForChunked). There is no divide-and-conquer spawner: the one sorter (the
// radix engine behind coo.Sort) partitions its work with For like every
// other stage.
//
// The paper parallelizes all five SpTC stages with OpenMP; here each stage
// maps onto one of these helpers with an explicit thread count so that the
// thread-scalability experiment (Fig. 6) can sweep it.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads returns the thread count used when an Options leaves it 0.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// Clamp normalizes a requested thread count: values < 1 become
// DefaultThreads(), and the result never exceeds n (no point spawning more
// workers than items).
func Clamp(threads, n int) int {
	if threads < 1 {
		threads = DefaultThreads()
	}
	if n < 1 {
		return 1
	}
	if threads > n {
		threads = n
	}
	return threads
}

// MinParallelWork is the estimated-work floor below which spawning workers
// costs more than it saves: BENCH_1.json showed threads=4 slower than
// threads=1 on the NIPS 2-mode contraction because its nf is tiny and each
// sub-tensor holds a handful of non-zeros.
const MinParallelWork = 1 << 13

// ClampWork is Clamp with a serial short-circuit for tiny jobs: when the
// caller's estimate of total work (typically the non-zero count behind the n
// loop items) is below MinParallelWork, it returns 1 regardless of the
// requested thread count. A negative work estimate means "unknown" and
// disables the short-circuit.
func ClampWork(threads, n int, work int64) int {
	if work >= 0 && work < MinParallelWork {
		return 1
	}
	return Clamp(threads, n)
}

// join waits for a set of worker goroutines and keeps the first value any
// of them panicked with, so that the goroutine that started them re-raises
// it once every worker has returned. A panic left in a worker would end the
// process; re-raised on the caller it unwinds the caller's defers and
// reaches whatever recovers there (net/http's per-connection recovery, for a
// server). The other workers run to the end.
type join struct {
	wg     sync.WaitGroup
	caught atomic.Bool
	val    any // set by the worker that won caught, read after wg.Wait
}

// done marks a worker finished. Each worker defers exactly one call,
// func() { j.done(recover()) }(), so a panic is recovered where it happens.
func (j *join) done(r any) {
	if r != nil && j.caught.CompareAndSwap(false, true) {
		j.val = r
	}
	j.wg.Done()
}

// wait blocks until every worker is done, then re-raises the first panic, if
// any, on the calling goroutine.
func (j *join) wait() {
	j.wg.Wait()
	if j.caught.Load() {
		panic(j.val)
	}
}

// For splits [0,n) into `threads` contiguous ranges and runs body(tid, lo, hi)
// on each in its own goroutine. Static partitioning preserves the locality of
// sorted inputs, which is what the computation stages rely on (each thread
// owns a contiguous run of X sub-tensors). A panic in body is re-raised on
// the caller after every range has finished.
func For(threads, n int, body func(tid, lo, hi int)) {
	threads = Clamp(threads, n)
	if threads == 1 {
		body(0, 0, n)
		return
	}
	var j join
	j.wg.Add(threads)
	for t := 0; t < threads; t++ {
		lo := n * t / threads
		hi := n * (t + 1) / threads
		go func(tid, lo, hi int) {
			defer func() { j.done(recover()) }()
			body(tid, lo, hi)
		}(t, lo, hi)
	}
	j.wait()
}

// ForChunked schedules [0,n) in fixed-size chunks pulled from a shared
// counter — dynamic load balancing for irregular work such as sub-tensors
// with skewed non-zero counts. chunk < 1 picks a heuristic.
func ForChunked(threads, n, chunk int, body func(tid, lo, hi int)) {
	_ = ForChunkedCtx(context.Background(), threads, n, chunk, body)
}

// ForChunkedCtx is ForChunked with a cancellation checkpoint between chunk
// claims: when ctx is done, workers stop claiming new chunks, the in-flight
// chunks run to completion (bodies never observe a torn range), and the call
// returns ctx.Err(). The chunks already executed are NOT rolled back — the
// caller owns discarding partial state. A Background context costs nothing
// on the claim path (its Done channel is nil). A panic in body is re-raised
// on the caller after the other workers have run out of chunks.
func ForChunkedCtx(ctx context.Context, threads, n, chunk int, body func(tid, lo, hi int)) error {
	threads = Clamp(threads, n)
	if chunk < 1 {
		chunk = (n + threads*8 - 1) / (threads * 8)
		if chunk < 1 {
			chunk = 1
		}
	}
	done := ctx.Done()
	if threads == 1 {
		for lo := 0; lo < n; lo += chunk {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(0, lo, hi)
		}
		return nil
	}
	// Chunks are claimed with a single atomic fetch-add: every chunk is the
	// same size, so the claimed range is a pure function of the returned
	// counter value and no lock is needed.
	var next int64
	var j join
	j.wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer func() { j.done(recover()) }()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(tid, lo, hi)
			}
		}(t)
	}
	j.wait()
	return ctx.Err()
}

// ForChunkedWork is ForChunked with a ClampWork serial fallback: stages whose
// loop items hide wildly different amounts of work (sub-tensors) pass their
// total non-zero count so tiny contractions skip the goroutine machinery.
func ForChunkedWork(threads, n, chunk int, work int64, body func(tid, lo, hi int)) {
	ForChunked(ClampWork(threads, n, work), n, chunk, body)
}

// ForChunkedWorkCtx is ForChunkedCtx with the ClampWork serial fallback.
func ForChunkedWorkCtx(ctx context.Context, threads, n, chunk int, work int64, body func(tid, lo, hi int)) error {
	return ForChunkedCtx(ctx, ClampWork(threads, n, work), n, chunk, body)
}

// PrefixSum computes the exclusive prefix sum of counts and returns the
// total. Used by the writeback stage to assign each thread-local Zlocal a
// disjoint output range.
func PrefixSum(counts []int) (offsets []int, total int) {
	offsets = make([]int, len(counts))
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	return offsets, total
}
