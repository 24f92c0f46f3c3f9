package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sparta/internal/coo"
)

// writebackShape is a contraction with nfx free modes of X and nfy of Y over
// one contract mode of size 6.
func writebackShape(nfx, nfy int) (x, y *coo.Tensor) {
	const c = 6
	xd := append([]uint64{7, 5}[:nfx:nfx], c)
	yd := append([]uint64{c}, []uint64{40, 3, 5, 2}[:nfy]...)
	nnzX, nnzY := 4*c, 8*c
	for _, d := range xd[:nfx] {
		nnzX *= int(d)
	}
	for _, d := range yd[1:] {
		nnzY *= int(d)
	}
	seed := int64(3400 + 10*nfx + nfy)
	return randomSparse(xd, nnzX/3, seed), randomSparse(yd, nnzY/3, seed+5)
}

// TestColumnWritebackMatchesTwoPhase: the column-major scatter writes,
// bitwise, the Z that AlgTwoPhase writes in sub-tensor order and then sorts
// separately — for 0-4 free modes of Y and 0-2 of X (the scalar output
// included), runs from the hash and the dense accumulator, Zlocal in
// 8-entry chunks so runs straddle many of them, 1, 2 and 8 threads, and the
// streamed driver in windows of 1 and 13 rows.
func TestColumnWritebackMatchesTwoPhase(t *testing.T) {
	ctx := context.Background()
	for nfx := 0; nfx <= 2; nfx++ {
		for nfy := 0; nfy <= 4; nfy++ {
			x, y := writebackShape(nfx, nfy)
			cmX, cmY := []int{nfx}, []int{0}
			want, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: AlgTwoPhase, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			if want.NNZ() == 0 {
				t.Fatalf("nfx %d nfy %d: empty output", nfx, nfy)
			}
			// Both sides decode with Radix.DecodeColumns; the reference is
			// checked against a product loop that decodes nothing.
			if d := naiveDiff(want, x, y, nfx); d != "" {
				t.Fatalf("nfx %d nfy %d: two-phase reference: %s", nfx, nfy, d)
			}
			for _, pick := range []accumChoice{pickHash, pickDense} {
				forceAccum(t, pick)
				for _, chunkCap := range []int{zchunkMax, 8} {
					setChunkCap(t, chunkCap)
					for _, threads := range []int{1, 2, 8} {
						name := fmt.Sprintf("nfx %d nfy %d pick %d chunk cap %d threads %d", nfx, nfy, pick, chunkCap, threads)
						opt := Options{Algorithm: AlgSparta, Threads: threads}
						z, rep, err := Contract(x, y, cmX, cmY, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if d := bitwiseDiff(z, want); d != "" {
							t.Fatalf("%s: %s", name, d)
						}
						if dense := rep.DenseSubs > 0; dense != (pick == pickDense) {
							t.Fatalf("%s: %d sub-tensors took the dense path", name, rep.DenseSubs)
						}
						pr, err := PrepareY(y, cmY, opt)
						if err != nil {
							t.Fatal(err)
						}
						px, err := PrepareX(ctx, x, cmX, opt)
						if err != nil {
							t.Fatal(err)
						}
						for _, windowNNZ := range []int{1, 13} {
							zs, _, err := ContractStreamX(ctx, px, windowNNZ, pr, StreamOptions{Options: opt})
							if err != nil {
								t.Fatalf("%s window %d: %v", name, windowNNZ, err)
							}
							if d := bitwiseDiff(zs, want); d != "" {
								t.Fatalf("%s window %d: %s", name, windowNNZ, d)
							}
						}
					}
				}
			}
		}
	}
}

// naiveDiff compares z with the contraction of x's last mode with y's first,
// summed product by product into a map keyed by the output coordinates, or
// returns "". The order in which products are summed may differ from the
// kernel's, so values are compared to 1e-9.
func naiveDiff(z, x, y *coo.Tensor, nfx int) string {
	type coord [6]uint32
	sums := map[coord]float64{}
	for i := 0; i < x.NNZ(); i++ {
		for j := 0; j < y.NNZ(); j++ {
			if x.Inds[nfx][i] != y.Inds[0][j] {
				continue
			}
			var c coord
			for m := 0; m < nfx; m++ {
				c[m] = x.Inds[m][i]
			}
			for m := 1; m < y.Order(); m++ {
				c[nfx+m-1] = y.Inds[m][j]
			}
			sums[c] += x.Vals[i] * y.Vals[j]
		}
	}
	if z.NNZ() != len(sums) {
		return fmt.Sprintf("%d non-zeros, the product loop has %d", z.NNZ(), len(sums))
	}
	for i := 0; i < z.NNZ(); i++ {
		var c coord
		for m := range z.Inds {
			c[m] = z.Inds[m][i]
		}
		want, ok := sums[c]
		if !ok || math.Abs(z.Vals[i]-want) > 1e-9 {
			return fmt.Sprintf("row %d at %v: %v, the product loop has %v (present %v)", i, c, z.Vals[i], want, ok)
		}
	}
	return ""
}

// TestGatherCPUCountsEachGoroutine: the gather books each scatter
// goroutine's busy interval to StageCPU, so with two workers whose intervals
// overlap its CPU term exceeds its wall term. The stubbed clock holds each
// goroutine's opening read until both have taken theirs, then naps inside
// the interval: the two naps overlap in the wall but both count as CPU.
func TestGatherCPUCountsEachGoroutine(t *testing.T) {
	const nap = 40 * time.Millisecond
	real := gatherNow
	var reads atomic.Int64
	bothOpen := make(chan struct{})
	gatherNow = func() int64 {
		now := real()
		switch reads.Add(1) { // reads 1 and 2 open the two busy intervals
		case 1:
			select { // a timeout, not a hang, if only one goroutine comes
			case <-bothOpen:
			case <-time.After(10 * time.Second):
			}
			time.Sleep(nap)
		case 2:
			close(bothOpen)
			time.Sleep(nap)
		}
		return now
	}
	t.Cleanup(func() { gatherNow = real })

	x, y := writebackShape(2, 1)
	_, rep, err := Contract(x, y, []int{2}, []int{0}, Options{Algorithm: AlgSparta, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reads.Load(); got != 4 {
		t.Fatalf("%d gather clock reads, want one pair per goroutine", got)
	}
	wall, cpu := rep.StageWall[StageWrite], rep.StageCPU[StageWrite]
	if wall < nap {
		t.Fatalf("writeback wall %v does not contain the %v nap", wall, nap)
	}
	// The workers' own write intervals add Σ − max to cpu − wall; on this
	// input that is microseconds, against a second nap of 40 ms.
	if cpu-wall < nap/2 {
		t.Errorf("writeback cpu %v exceeds its wall %v by %v, want at least %v: one goroutine's busy interval went uncounted",
			cpu, wall, cpu-wall, nap/2)
	}
}
