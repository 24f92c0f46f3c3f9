package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/invariant"
	"sparta/internal/obs"
)

// forceAccum overrides the per-sub-tensor accumulator choice for one test, so
// the same inputs run down the hash path, the dense path, and the automatic
// rule. Tests that use it must not run in parallel.
func forceAccum(t testing.TB, pick accumChoice) {
	t.Helper()
	old := accumPick
	accumPick = pick
	t.Cleanup(func() { accumPick = old })
}

// bitwiseDiff reports the first place a and b differ when values are compared
// as bit patterns — NaN equals NaN, +0.0 differs from -0.0 — or "".
func bitwiseDiff(a, b *coo.Tensor) string {
	if len(a.Dims) != len(b.Dims) || a.NNZ() != b.NNZ() {
		return fmt.Sprintf("shape: dims %v nnz %d vs dims %v nnz %d", a.Dims, a.NNZ(), b.Dims, b.NNZ())
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return fmt.Sprintf("dims %v vs %v", a.Dims, b.Dims)
		}
		for i := range a.Inds[m] {
			if a.Inds[m][i] != b.Inds[m][i] {
				return fmt.Sprintf("row %d mode %d: index %d vs %d", i, m, a.Inds[m][i], b.Inds[m][i])
			}
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return fmt.Sprintf("row %d: value %v (%#x) vs %v (%#x)", i,
				a.Vals[i], math.Float64bits(a.Vals[i]), b.Vals[i], math.Float64bits(b.Vals[i]))
		}
	}
	return ""
}

// denseCase is one input of the forced-path oracle.
type denseCase struct {
	name     string
	x, y     *coo.Tensor
	cmX, cmY []int
	// autoDense is how many sub-tensors the automatic rule must send down the
	// dense path, or autoAll / autoMix (some but not all).
	autoDense int
	// capped marks a free-Y space above denseCardMax: even the forced dense
	// pick must stay on the hash path.
	capped bool
}

const (
	autoMix = -1
	autoAll = -2
)

// tensorOf builds a tensor from rows of (indices..., value).
func tensorOf(dims []uint64, rows ...[]float64) *coo.Tensor {
	t := coo.MustNew(dims, len(rows))
	idx := make([]uint32, len(dims))
	for _, r := range rows {
		for m := range dims {
			idx[m] = uint32(r[m])
		}
		t.Append(idx, r[len(dims)])
	}
	return t
}

// wideY returns a Y with one contract mode of size keys and the given free
// dims, perKey non-zeros under every contract key at distinct free positions.
func wideY(keys int, free []uint64, perKey int, seed int64) *coo.Tensor {
	rng := rand.New(rand.NewSource(seed))
	card := 1
	for _, d := range free {
		card *= int(d)
	}
	y := coo.MustNew(append([]uint64{uint64(keys)}, free...), keys*perKey)
	idx := make([]uint32, 1+len(free))
	for c := 0; c < keys; c++ {
		for _, cell := range rng.Perm(card)[:perKey] {
			idx[0] = uint32(c)
			for m := len(free) - 1; m >= 0; m-- {
				idx[1+m] = uint32(cell % int(free[m]))
				cell /= int(free[m])
			}
			y.Append(idx, rng.NormFloat64())
		}
	}
	return y
}

func denseCases() []denseCase {
	nan, inf := math.NaN(), math.Inf(1)
	negZ := math.Copysign(0, -1)

	// One sub-tensor per phenomenon; Y's contract mode has six keys over a
	// 3x4 free space. Sub-tensor 0: +3 and -3 cancel to exactly +0.0 in cell
	// (0,0), which must stay an output non-zero. 1: a lone -0.0 product, and
	// -0.0 + -0.0. 2: NaN, +Inf + -Inf, and a finite value after an Inf.
	// 3: Y's duplicate coordinate (2,2,3) adds twice.
	special := denseCase{
		name: "special values",
		x: tensorOf([]uint64{4, 6},
			[]float64{0, 0, 1}, []float64{0, 1, -1},
			[]float64{1, 2, negZ}, []float64{1, 3, -1},
			[]float64{2, 4, 1}, []float64{2, 5, 1},
			[]float64{3, 2, 2}),
		y: tensorOf([]uint64{6, 3, 4},
			[]float64{0, 0, 0, 3}, []float64{1, 0, 0, 3}, []float64{1, 1, 1, 7},
			[]float64{2, 2, 3, 5}, []float64{2, 2, 3, 0.25}, []float64{2, 0, 1, 4},
			[]float64{3, 0, 1, 0}, []float64{3, 1, 2, 0},
			[]float64{4, 0, 0, nan}, []float64{4, 1, 1, inf}, []float64{4, 2, 2, -inf},
			[]float64{5, 1, 1, -inf}, []float64{5, 2, 2, 1}, []float64{5, 0, 0, 1}),
		cmX: []int{1}, cmY: []int{0},
		autoDense: 4,
	}

	// nfy == 0: Y is contracted away entirely, the free-Y space is the one
	// cell of the empty tuple.
	scalarFY := denseCase{
		name: "scalar free-Y",
		x:    randomSparse([]uint64{7, 5, 4}, 60, 301),
		y:    randomSparse([]uint64{5, 4}, 12, 302),
		cmX:  []int{1, 2}, cmY: []int{0, 1},
		autoDense: autoAll,
	}

	// The fill ratio on a 6x10 = 60-cell space: ceil(60/8) = 8 products take
	// the dense path, 7 stay on the hash path. Y has one item per contract
	// key; sub-tensor 0 of X holds eight keys, sub-tensor 1 seven.
	ratioY := coo.MustNew([]uint64{8, 6, 10}, 8)
	ratioX := coo.MustNew([]uint64{2, 8}, 15)
	for c := 0; c < 8; c++ {
		ratioY.Append([]uint32{uint32(c), uint32(c % 6), uint32(c)}, float64(c)+0.5)
		ratioX.Append([]uint32{0, uint32(c)}, 1.5)
		if c < 7 {
			ratioX.Append([]uint32{1, uint32(c)}, -2.5)
		}
	}
	ratio := denseCase{
		name: "products at and one below the ratio",
		x:    ratioX, y: ratioY, cmX: []int{1}, cmY: []int{0},
		autoDense: 1,
	}

	// The cell cap: 3 x 3000 = 9000 products into 256x256 = 2^16 cells is
	// above the ratio (8192) and at the cap; one more cell and it is over.
	capX := tensorOf([]uint64{2, 3},
		[]float64{0, 0, 1}, []float64{0, 1, 2}, []float64{0, 2, -1},
		[]float64{1, 0, 1}, []float64{1, 1, 1}, []float64{1, 2, 1})
	atCap := denseCase{
		name: "card at the cap",
		x:    capX, y: wideY(3, []uint64{256, 256}, 3000, 303), cmX: []int{1}, cmY: []int{0},
		autoDense: 2,
	}
	overCap := denseCase{
		name: "card one above the cap",
		x:    capX, y: wideY(3, []uint64{denseCardMax + 1}, 3000, 304), cmX: []int{1}, cmY: []int{0},
		autoDense: 0, capped: true,
	}

	// accum_dense in miniature: every sub-tensor overfills a 6x5 space.
	filled := denseCase{
		name: "random, overfilled",
		x:    randomSparse([]uint64{9, 8, 7}, 400, 305),
		y:    randomSparse([]uint64{8, 7, 6, 5}, 900, 306),
		cmX:  []int{1, 2}, cmY: []int{0, 1},
		autoDense: autoAll,
	}
	// A sparse output row: most sub-tensors stay below the ratio.
	sparse := denseCase{
		name: "random, sparse rows",
		x:    randomSparse([]uint64{50, 40}, 300, 307),
		y:    randomSparse([]uint64{40, 30, 20}, 500, 308),
		cmX:  []int{1}, cmY: []int{0},
		autoDense: autoMix,
	}
	return []denseCase{special, scalarFY, ratio, atCap, overCap, filled, sparse}
}

// TestDenseMatchesHashBitwise is the forced-path oracle: hash everywhere,
// dense everywhere and the automatic rule produce bitwise-identical Z and the
// same account for every thread count, and the automatic rule picks the
// dense path exactly where the two constants say.
func TestDenseMatchesHashBitwise(t *testing.T) {
	setChunkCap(t, 64) // several chunks per worker, so dense runs cross chunk boundaries
	for _, c := range denseCases() {
		forceAccum(t, pickHash)
		want, wantRep, err := Contract(c.x, c.y, c.cmX, c.cmY, Options{Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wantRep.DenseSubs != 0 {
			t.Fatalf("%s: forced hash path reports %d dense sub-tensors", c.name, wantRep.DenseSubs)
		}
		ptr, err := want.SubPtr(len(c.x.Dims) - len(c.cmX))
		if err != nil {
			t.Fatal(err)
		}
		matched := uint64(len(ptr) - 1) // sub-tensors of X with any output
		for _, pick := range []accumChoice{pickHash, pickDense, pickAuto} {
			forceAccum(t, pick)
			for _, threads := range []int{1, 2, 4} {
				z, rep, err := Contract(c.x, c.y, c.cmX, c.cmY, Options{Threads: threads})
				if err != nil {
					t.Fatalf("%s pick=%d threads=%d: %v", c.name, pick, threads, err)
				}
				if d := bitwiseDiff(z, want); d != "" {
					t.Fatalf("%s pick=%d threads=%d: Z differs from the hash path: %s", c.name, pick, threads, d)
				}
				if rep.Products != wantRep.Products || rep.NNZZ != wantRep.NNZZ {
					t.Errorf("%s pick=%d threads=%d: products/nnzZ %d/%d, hash path %d/%d",
						c.name, pick, threads, rep.Products, rep.NNZZ, wantRep.Products, wantRep.NNZZ)
				}
				if rep.AccumHits+rep.AccumMiss != rep.Products || rep.AccumMiss != uint64(rep.NNZZ) {
					t.Errorf("%s pick=%d threads=%d: hits %d + misses %d vs products %d, misses vs nnzZ %d",
						c.name, pick, threads, rep.AccumHits, rep.AccumMiss, rep.Products, rep.NNZZ)
				}
				if rep.ProbesHtA < rep.Products {
					t.Errorf("%s pick=%d threads=%d: %d probes for %d adds", c.name, pick, threads, rep.ProbesHtA, rep.Products)
				}
				wantDense := int(rep.DenseSubs)
				switch {
				case pick == pickHash || c.capped:
					wantDense = 0
				case pick == pickDense || c.autoDense == autoAll:
					wantDense = int(matched)
				case c.autoDense >= 0:
					wantDense = c.autoDense
				case rep.DenseSubs == 0 || rep.DenseSubs >= matched:
					t.Errorf("%s threads=%d: the rule sent %d of %d sub-tensors down the dense path, want a mix",
						c.name, threads, rep.DenseSubs, matched)
				}
				if int(rep.DenseSubs) != wantDense {
					t.Errorf("%s pick=%d threads=%d: %d dense sub-tensors, want %d of %d",
						c.name, pick, threads, rep.DenseSubs, wantDense, matched)
				}
			}
		}
	}
}

// TestUseDense pins the rule's two boundaries without running a contraction.
func TestUseDense(t *testing.T) {
	for _, c := range []struct {
		card     uint64
		products int
		want     bool
	}{
		{1, 1, true},
		{256, 32, true}, {256, 31, false},
		{60, 8, true}, {60, 7, false},
		{denseCardMax, denseCardMax / denseFillDiv, true},
		{denseCardMax, denseCardMax/denseFillDiv - 1, false},
		{denseCardMax + 1, 1 << 30, false},
		{math.MaxUint64, math.MaxInt, false},
	} {
		if got := useDense(c.card, c.products); got != c.want {
			t.Errorf("useDense(%d cells, %d products) = %v, want %v", c.card, c.products, got, c.want)
		}
	}
}

// TestDenseStreamedAndPrepared: a PreparedY reused across calls and a
// streamed run cut into many windows keep one dense array per worker and
// still match the in-memory hash path bitwise.
func TestDenseStreamedAndPrepared(t *testing.T) {
	x := randomSparse([]uint64{60, 9, 8}, 1500, 311)
	y := randomSparse([]uint64{9, 8, 7, 6}, 1200, 312)
	cmX, cmY := []int{1, 2}, []int{0, 1}
	opt := Options{Threads: 2}
	forceAccum(t, pickHash)
	want, _, err := Contract(x, y, cmX, cmY, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pick := range []accumChoice{pickDense, pickAuto} {
		forceAccum(t, pick)
		pr, err := PrepareY(y, cmY, opt)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 2; call++ {
			z, rep, err := pr.Contract(context.Background(), x, cmX, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d := bitwiseDiff(z, want); d != "" {
				t.Fatalf("pick=%d prepared call %d: %s", pick, call, d)
			}
			if rep.DenseSubs == 0 {
				t.Errorf("pick=%d prepared call %d: no sub-tensor took the dense path", pick, call)
			}
		}
		px, err := PrepareX(context.Background(), x, cmX, opt)
		if err != nil {
			t.Fatal(err)
		}
		z, rep, err := ContractStreamX(context.Background(), px, 100, pr, StreamOptions{Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		if d := bitwiseDiff(z, want); d != "" {
			t.Fatalf("pick=%d streamed: %s", pick, d)
		}
		if rep.Windows < 5 || rep.DenseSubs == 0 {
			t.Errorf("pick=%d streamed: %d windows, %d dense sub-tensors", pick, rep.Windows, rep.DenseSubs)
		}
		// One 42-cell array and its bitmap per worker, however many windows.
		if max := 2 * (hashtab.NewHtAFlat(htaCapHint).Bytes() + 42*8 + 8); rep.BytesHtA > max {
			t.Errorf("pick=%d streamed: BytesHtA %d, want at most %d", pick, rep.BytesHtA, max)
		}
	}
}

// TestDenseOutputLimit: MaxOutputNNZ trips inside a dense flush — openRun is
// where the dense path reserves its run — with the same error as everywhere.
func TestDenseOutputLimit(t *testing.T) {
	x := randomSparse([]uint64{4000, 5}, 5000, 921)
	y := denseTensor([]uint64{5, 2})
	cmX, cmY := []int{1}, []int{0}
	forceAccum(t, pickDense)
	full, rep, err := Contract(x, y, cmX, cmY, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DenseSubs == 0 || rep.DenseSubs != rep.AccumMiss/2 {
		t.Fatalf("%d dense sub-tensors for %d outputs of two cells each", rep.DenseSubs, rep.AccumMiss)
	}
	const limit, chunk = 100, 8
	setChunkCap(t, chunk)
	for _, threads := range []int{1, 2} {
		_, _, err := Contract(x, y, cmX, cmY, Options{Threads: threads, MaxOutputNNZ: limit})
		var e *OutputTooLargeError
		if !errors.Is(err, ErrOutputTooLarge) || !errors.As(err, &e) {
			t.Fatalf("threads=%d: got %v, want an *OutputTooLargeError", threads, err)
		}
		if e.Limit != limit || e.Got <= limit || e.Got > limit+threads*chunk {
			t.Errorf("threads=%d: stopped at %d outputs, want within %d of the limit %d (the full output is %d)",
				threads, e.Got, threads*chunk, limit, full.NNZ())
		}
	}
	z, _, err := Contract(x, y, cmX, cmY, Options{Threads: 2, MaxOutputNNZ: full.NNZ()})
	if err != nil || bitwiseDiff(z, full) != "" {
		t.Fatalf("exact bound: err %v", err)
	}
}

// TestDenseAccount: the dense path's adds reach every account book — the
// probe-length histogram as length-1 probes, the dense sub-tensor counter,
// and BytesHtA, which grows by exactly the array and its bitmap per worker.
func TestDenseAccount(t *testing.T) {
	x := randomSparse([]uint64{9, 8, 7}, 400, 305)
	y := randomSparse([]uint64{8, 7, 6, 5}, 900, 306)
	cmX, cmY := []int{1, 2}, []int{0, 1}
	const threads, card = 2, 6 * 5
	run := func(pick accumChoice) (*Report, []obs.Snapshot) {
		forceAccum(t, pick)
		reg := obs.NewRegistry()
		_, rep, err := Contract(x, y, cmX, cmY, Options{Threads: threads, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return rep, reg.Snapshot()
	}
	hashRep, _ := run(pickHash)
	rep, snaps := run(pickDense)
	if rep.ProbesHtA != rep.Products {
		t.Errorf("%d probes for %d direct-indexed adds", rep.ProbesHtA, rep.Products)
	}
	h := findSnap(snaps, "sptc_hta_probe_length", "")
	if h == nil || h.Count != rep.Products || h.Sum != float64(rep.Products) {
		t.Errorf("probe histogram %+v, want %d observations of length 1", h, rep.Products)
	}
	if c := findSnap(snaps, "sptc_accum_dense_subtensors_total", ""); c == nil || c.Value != float64(rep.DenseSubs) || rep.DenseSubs == 0 {
		t.Errorf("dense sub-tensor counter %+v, report says %d", c, rep.DenseSubs)
	}
	// (A worker the scheduler gave no sub-tensor to has no array.)
	perWorker := uint64(card*8 + (card+63)/64*8)
	if got := rep.BytesHtA - hashRep.BytesHtA; got != perWorker && got != threads*perWorker {
		t.Errorf("BytesHtA %d, want the hash path's %d + 1 or %d x %d", rep.BytesHtA, hashRep.BytesHtA, threads, perWorker)
	}
	if got, want := rep.BytesHtAPerThr, hashRep.BytesHtAPerThr+perWorker; got != want {
		t.Errorf("BytesHtAPerThr %d, want %d", got, want)
	}
}

// denseWorker returns a worker with a dense accumulator over card cells and
// the given matches in its scratch.
func denseWorker(card uint64, scratch []match) *worker {
	w := makeWorkers(1, &plan{nfy: 1}, Options{})[0]
	w.dense.init(card)
	w.scratch = scratch
	for _, m := range scratch {
		w.found += len(m.items)
	}
	return w
}

// TestDenseLoopsAllocateNothing: accumulate and flush run without touching
// the heap once the worker's first chunk exists, and leave the accumulator in
// its resting state (every cell -0.0, every bit clear).
func TestDenseLoopsAllocateNothing(t *testing.T) {
	items := []hashtab.YItem{{LNFree: 3, Val: 1}, {LNFree: 64, Val: 2}, {LNFree: 3, Val: -1}, {LNFree: 199, Val: 0.5}}
	w := denseWorker(200, []match{{items: items, xv: 2}, {items: items[:2], xv: -1}})
	step := func() {
		w.z.reset()
		w.accumulateDense()
		w.flushDense(0)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per accumulate+flush, want 0", allocs)
	}
	c := w.z.live()[0]
	wantK, wantV := []uint64{3, 64, 199}, []float64{-1, 2, 1} // 2-2-1, 4-2, 1
	if len(c.lns) != 3 || len(c.vals) != 3 || len(c.subs) != 1 || c.subs[0].n != 3 {
		t.Fatalf("flushed run %v/%v subs %v", c.lns, c.vals, c.subs)
	}
	for i := range wantK {
		if c.lns[i] != wantK[i] || c.vals[i] != wantV[i] {
			t.Errorf("entry %d: (%d, %v), want (%d, %v)", i, c.lns[i], c.vals[i], wantK[i], wantV[i])
		}
	}
	for k, v := range w.dense.vals {
		if math.Float64bits(v) != math.Float64bits(negZero) {
			t.Fatalf("cell %d rests at %v, want -0.0", k, v)
		}
	}
	for i, word := range w.dense.occ {
		if word != 0 {
			t.Fatalf("occupancy word %d is %#x after flush", i, word)
		}
	}
}

// TestDenseImpossibleKey: a key outside the free-Y space cannot come out of
// HtY; if one did, an assert build stops on it and a plain build skips the
// product without writing outside the array.
func TestDenseImpossibleKey(t *testing.T) {
	w := denseWorker(4, []match{{items: []hashtab.YItem{{LNFree: 1, Val: 1}, {LNFree: 9, Val: 1}}, xv: 1}})
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		w.accumulateDense()
		return
	}()
	if panicked != invariant.Enabled {
		t.Fatalf("out-of-range key panicked=%v, want %v (invariant.Enabled)", panicked, invariant.Enabled)
	}
	if w.dense.occ[0] != 1<<1 {
		t.Errorf("occupancy %#b, want only key 1", w.dense.occ[0])
	}
}

// BenchmarkAccumulateDenseVsHash is the sweep behind denseCardMax and
// denseFillDiv: one sub-tensor's accumulate + flush + reset on either
// accumulator, over free-Y spaces of 2^8..2^20 cells with products/cells
// from 1/64 to 1 (keys uniform, so the occupied share is 1 - e^-density).
// Item lists are 32 long and key-ordered, as they leave the HtY build.
// "dense-first" is a worker's first dense sub-tensor: it also allocates the
// array and fills it with -0.0, the cost the fill ratio has to cover when a
// contraction has only one qualifying sub-tensor.
func BenchmarkAccumulateDenseVsHash(b *testing.B) {
	for cardLog := 8; cardLog <= 20; cardLog += 2 {
		card := uint64(1) << cardLog
		for _, div := range []int{64, 16, 8, 4, 1} {
			products := int(card) / div
			rng := rand.New(rand.NewSource(int64(cardLog*100 + div)))
			var scratch []match
			for left := products; left > 0; left -= 32 {
				n := min(left, 32)
				keys := make(map[uint64]bool, n)
				for len(keys) < n {
					keys[uint64(rng.Int63n(int64(card)))] = true
				}
				items := make([]hashtab.YItem, 0, n)
				for k := range keys {
					items = append(items, hashtab.YItem{LNFree: k, Val: rng.Float64()})
				}
				sort.Slice(items, func(a, b int) bool { return items[a].LNFree < items[b].LNFree })
				scratch = append(scratch, match{items: items, xv: rng.Float64()})
			}
			for _, path := range []string{"hash", "dense", "dense-first"} {
				b.Run(fmt.Sprintf("card=2^%d/fill=1_%d/%s", cardLog, div, path), func(b *testing.B) {
					w := denseWorker(card, scratch)
					step := func() {
						w.z.reset()
						switch path {
						case "hash":
							w.accumulateHtY()
							w.flushHtA(0)
						case "dense-first":
							w.dense.init(card)
							fallthrough
						default:
							w.accumulateDense()
							w.flushDense(0)
						}
					}
					step() // grow HtA and open the chunk outside the timing
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(products), "ns/product")
				})
			}
		}
	}
}
