package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"sparta/internal/coo"
	"sparta/internal/gen"
	"sparta/internal/invariant"
)

// setChunkCap lowers the Zlocal chunk capacity for one test, so inputs of a
// few hundred non-zeros exercise many chunks, oversize runs and exact fills.
// Tests that use it must not run in parallel.
func setChunkCap(t *testing.T, entries int) {
	t.Helper()
	old := zchunkMax
	zchunkMax = entries
	t.Cleanup(func() { zchunkMax = old })
}

// denseTensor returns the all-ones-pattern tensor over dims with distinct
// values, so every contraction against it produces runs of a known length.
func denseTensor(dims []uint64) *coo.Tensor {
	t := coo.MustNew(dims, 0)
	idx := make([]uint32, len(dims))
	v := 1.0
	var fill func(m int)
	fill = func(m int) {
		if m == len(dims) {
			t.Append(idx, v)
			v += 0.25
			return
		}
		for i := uint32(0); uint64(i) < dims[m]; i++ {
			idx[m] = i
			fill(m + 1)
		}
	}
	fill(0)
	return t
}

// chunkShapes are the run-length regimes the chunk list has to get right at
// a cap of 8 entries.
var chunkShapes = []struct {
	name string
	x, y func() *coo.Tensor
}{
	{"runs larger than the cap", // up to 200 outputs per X row
		func() *coo.Tensor { return randomSparse([]uint64{6, 30}, 90, 901) },
		func() *coo.Tensor { return randomSparse([]uint64{30, 200}, 1500, 902) }},
	{"runs that fill a chunk exactly", // every non-empty X row yields 8 outputs
		func() *coo.Tensor { return randomSparse([]uint64{60, 5}, 150, 903) },
		func() *coo.Tensor { return denseTensor([]uint64{5, 8}) }},
	{"thousands of 1-2-entry runs",
		func() *coo.Tensor { return randomSparse([]uint64{4000, 5}, 5000, 905) },
		func() *coo.Tensor { return randomSparse([]uint64{5, 2}, 7, 906) }},
}

// TestChunkedZlocalMatchesTwoPhase: with the chunk cap lowered to 8 entries
// every Zlocal-buffered configuration must still produce, bit for bit, what
// the two-phase algorithm writes — it sizes Z from a symbolic pass and has
// no Zlocal at all, so it is an oracle the chunk list cannot influence.
func TestChunkedZlocalMatchesTwoPhase(t *testing.T) {
	cmX, cmY := []int{1}, []int{0}
	for _, s := range chunkShapes {
		x, y := s.x(), s.y()
		want, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: AlgTwoPhase, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		configs := []Options{
			{Algorithm: AlgSparta},
			{Algorithm: AlgCOOHtA},
			{Algorithm: AlgSPA}, // flushSPA
		}
		setChunkCap(t, 8)
		for _, opt := range configs {
			for _, threads := range []int{1, 2, 8} {
				opt.Threads = threads
				z, rep, err := Contract(x, y, cmX, cmY, opt)
				if err != nil {
					t.Fatalf("%s: %v threads=%d: %v", s.name, opt.Algorithm, threads, err)
				}
				if !z.Equal(want) {
					t.Fatalf("%s: %v threads=%d: output differs from two-phase",
						s.name, opt.Algorithm, threads)
				}
				if floor := uint64(z.NNZ()) * 16; rep.BytesZLocal < floor {
					t.Fatalf("%s: BytesZLocal %d below the %d bytes of keys and values buffered",
						s.name, rep.BytesZLocal, floor)
				}
			}
		}
	}
}

// TestZlocalChunkList drives the buffer directly: a run never straddles two
// chunks, an exact fill leaves no room, an oversize run gets a chunk of its
// own, and reset keeps every chunk for the next window.
func TestZlocalChunkList(t *testing.T) {
	setChunkCap(t, 8)
	var w worker
	push := func(f, n int) {
		t.Helper()
		c := w.openRun(f, n)
		if c == nil {
			t.Fatalf("run %d (%d entries): %v", f, n, w.err)
		}
		for i := 0; i < n; i++ {
			c.lns = append(c.lns, uint64(f))
			c.vals = append(c.vals, float64(i))
		}
	}
	runs := []int{3, 5, 1, 20, 8, 7, 2}
	fill := func() {
		for f, n := range runs {
			push(f, n)
		}
	}
	fill()
	wantChunks := [][]int{{3, 5}, {1}, {20}, {8}, {7}, {2}}
	check := func() {
		t.Helper()
		if w.z.used != len(wantChunks) || w.z.n != 46 {
			t.Fatalf("%d chunks holding %d entries, want %d holding 46", w.z.used, w.z.n, len(wantChunks))
		}
		for ci, c := range w.z.live() {
			if len(c.subs) != len(wantChunks[ci]) {
				t.Fatalf("chunk %d holds %d runs, want %v", ci, len(c.subs), wantChunks[ci])
			}
			k := 0
			for ri, sub := range c.subs {
				if int(sub.n) != wantChunks[ci][ri] {
					t.Fatalf("chunk %d run %d has %d entries, want %d", ci, ri, sub.n, wantChunks[ci][ri])
				}
				for j := 0; j < int(sub.n); j++ {
					if c.lns[k] != uint64(sub.f) || c.vals[k] != float64(j) {
						t.Fatalf("chunk %d run %d entry %d is {%d, %v}", ci, ri, j, c.lns[k], c.vals[k])
					}
					k++
				}
			}
			if k != len(c.lns) || k != len(c.vals) {
				t.Fatalf("chunk %d: runs cover %d entries of %d keys, %d values", ci, k, len(c.lns), len(c.vals))
			}
		}
	}
	check()
	if got := cap(w.z.chunks[2].lns); got != 20 {
		t.Errorf("oversize run got a chunk of %d entries, want exactly 20", got)
	}
	for ci, c := range w.z.chunks {
		if ci != 2 && cap(c.lns) != 8 {
			t.Errorf("chunk %d has capacity %d, want the cap 8", ci, cap(c.lns))
		}
	}

	// reset recycles: the same fill again allocates nothing new and lands
	// in the same backing arrays.
	bytes := w.z.bytes()
	first := &w.z.chunks[0].lns[:1][0]
	w.z.reset()
	if w.z.used != 0 || w.z.n != 0 || w.z.bytes() != bytes {
		t.Fatalf("reset left used=%d n=%d bytes=%d (was %d)", w.z.used, w.z.n, w.z.bytes(), bytes)
	}
	fill()
	check()
	if w.z.bytes() != bytes {
		t.Errorf("refill after reset grew Zlocal from %d to %d bytes", bytes, w.z.bytes())
	}
	if &w.z.chunks[0].lns[:1][0] != first {
		t.Error("refill after reset did not reuse the first chunk's storage")
	}
}

// TestZlocalRamp: at the production cap the first chunks double from
// zchunkMin, so a small output never pays for a full-size chunk.
func TestZlocalRamp(t *testing.T) {
	var w worker
	for f := 0; f < 3*zchunkMax/100; f++ {
		c := w.openRun(f, 100)
		if c == nil {
			t.Fatal(w.err)
		}
		c.lns, c.vals = c.lns[:len(c.lns)+100], c.vals[:len(c.vals)+100]
	}
	want := zchunkMin
	for ci, c := range w.z.chunks {
		if cap(c.lns) != want || cap(c.vals) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", ci, cap(c.lns), want)
		}
		if want < zchunkMax {
			want *= 2
		}
	}
	if want != zchunkMax {
		t.Fatalf("ramp stopped at %d entries, never reached the cap %d", want, zchunkMax)
	}
}

// TestStreamChunkedZlocal: the streamed driver over at least three windows,
// chunk cap lowered, is bitwise the in-memory result; and because reset
// recycles chunks, six identical windows leave exactly the Zlocal footprint
// two of them do.
func TestStreamChunkedZlocal(t *testing.T) {
	// Six blocks of 20 X rows; block b is block 0 shifted by 20b rows, so
	// every window of exactly one block produces the same runs.
	const blocks, rows = 6, 20
	block := randomSparse([]uint64{rows, 9}, 70, 911)
	build := func(nb int) *coo.Tensor {
		x := coo.MustNew([]uint64{blocks * rows, 9}, 0)
		idx := make([]uint32, 2)
		for b := 0; b < nb; b++ {
			for i := 0; i < block.NNZ(); i++ {
				idx[0], idx[1] = block.Inds[0][i]+uint32(b*rows), block.Inds[1][i]
				x.Append(idx, block.Vals[i]+float64(b))
			}
		}
		return x
	}
	y := randomSparse([]uint64{9, 40}, 200, 912)
	cmX, cmY := []int{1}, []int{0}
	setChunkCap(t, 8)
	for _, threads := range []int{1, 2} {
		opt := Options{Algorithm: AlgSparta, Threads: threads}
		pr, err := PrepareY(y, cmY, opt)
		if err != nil {
			t.Fatal(err)
		}
		stream := func(x *coo.Tensor) (*coo.Tensor, *Report) {
			t.Helper()
			px, err := PrepareX(context.Background(), x, cmX, opt)
			if err != nil {
				t.Fatal(err)
			}
			z, rep, err := ContractStreamX(context.Background(), px, block.NNZ(), pr, StreamOptions{Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			return z, rep
		}
		x6 := build(blocks)
		want, _, err := pr.Contract(context.Background(), x6, cmX, opt)
		if err != nil {
			t.Fatal(err)
		}
		z6, rep6 := stream(x6)
		if rep6.Windows != blocks {
			t.Fatalf("threads=%d: streamed in %d windows, want %d", threads, rep6.Windows, blocks)
		}
		if !z6.Equal(want) {
			t.Fatalf("threads=%d: streamed output differs from in-memory", threads)
		}
		if threads != 1 {
			continue // which worker takes which sub-tensor varies with >1 thread
		}
		_, rep2 := stream(build(2))
		if rep2.Windows != 2 || rep6.BytesZLocal != rep2.BytesZLocal {
			t.Errorf("Zlocal grew across identical windows: %d bytes after 2 windows, %d after %d",
				rep2.BytesZLocal, rep6.BytesZLocal, rep6.Windows)
		}
	}
}

// TestWritebackAllocation is the allocation regression test for the
// output-heavy shape the benchmark calls write_out: one Contract allocates
// at most 2.75x the bytes of the Z it returns (Z itself, one Zlocal of about
// the same size, HtY and the sorted X copy), and — because nothing grows by
// doubling any more — the same multiple whatever the generator seed.
func TestWritebackAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("three 40k x 40k contractions")
	}
	if invariant.Enabled {
		t.Skip("-tags assert: the invariant checks box their arguments, which allocates")
	}
	p, err := gen.FindPreset("Chicago")
	if err != nil {
		t.Fatal(err)
	}
	cm := []int{1, 2, 3}
	// One thread, so which worker buffers what — and with it the unfilled
	// tail of the last chunk — does not vary from run to run.
	opt := Options{Algorithm: AlgSparta, Threads: 1}
	var ratios []float64
	for _, seed := range []int64{42, 7, 99} {
		x, y := gen.Generate(p, 40000, seed+1), gen.Generate(p, 40000, seed)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, rep, err := Contract(x, y, cm, cm, opt)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rep.BytesZ)
		t.Logf("seed %d: nnz(Z) %d, %.1f MB allocated for a %.1f MB Z (x%.2f), Zlocal %.1f MB",
			seed, rep.NNZZ, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, float64(rep.BytesZ)/1e6, ratio, float64(rep.BytesZLocal)/1e6)
		if ratio > 2.75 {
			t.Errorf("seed %d: allocated %.2fx the output bytes, want <= 2.75x", seed, ratio)
		}
		if float64(rep.BytesZLocal) > 1.15*float64(rep.BytesZ) {
			t.Errorf("seed %d: Zlocal footprint %d exceeds 1.15x Z's %d", seed, rep.BytesZLocal, rep.BytesZ)
		}
		ratios = append(ratios, ratio)
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if hi > 1.02*lo {
		t.Errorf("allocation per output byte varies %.3f..%.3f across seeds, want within 2%%", lo, hi)
	}
}

// TestWorkerArenaLayout: every per-thread field a hot loop writes — the
// accumulator header, the counters, Zlocal's tail — lives inside the
// worker's arena element, and consecutive elements keep those bytes at
// least workerLine apart, so two threads never write one cache-line pair.
func TestWorkerArenaLayout(t *testing.T) {
	if s := unsafe.Sizeof(workerSlot{}); s%workerLine != 0 {
		t.Errorf("workerSlot is %d bytes, not a multiple of %d", s, workerLine)
	}
	for _, opt := range []Options{
		{Algorithm: AlgSparta},
		{Algorithm: AlgSPA},
	} {
		ws := makeWorkers(4, &plan{nfy: 2}, opt)
		for i, w := range ws {
			lo := uintptr(unsafe.Pointer(w))
			hi := lo + unsafe.Sizeof(*w)
			inside := func(name string, p unsafe.Pointer, size uintptr) {
				t.Helper()
				if a := uintptr(p); a < lo || a+size > hi {
					t.Errorf("%v worker %d: %s lies outside its arena element", opt.Algorithm, i, name)
				}
			}
			switch {
			case w.hta != nil:
				inside("HtAFlat header", unsafe.Pointer(w.hta), unsafe.Sizeof(*w.hta))
			case w.spa != nil:
				inside("SPA header", unsafe.Pointer(w.spa), unsafe.Sizeof(*w.spa))
			default:
				t.Fatalf("%v worker %d has no accumulator", opt.Algorithm, i)
			}
			inside("products counter", unsafe.Pointer(&w.products), 8)
			inside("Zlocal tail", unsafe.Pointer(&w.z), unsafe.Sizeof(w.z))
			if i == 0 {
				continue
			}
			prevEnd := uintptr(unsafe.Pointer(ws[i-1])) + unsafe.Sizeof(*ws[i-1])
			if gap := lo - prevEnd; lo < prevEnd || gap < workerLine {
				t.Errorf("%v workers %d and %d: mutable state %d bytes apart, want >= %d",
					opt.Algorithm, i-1, i, gap, workerLine)
			}
		}
	}
}

// TestOutputLimit: every driver reports MaxOutputNNZ the same way — an
// error errors.Is matches against ErrOutputTooLarge and errors.As unpacks
// into got/limit — and a worker trips it while Zlocal fills, within one
// chunk per thread of the bound, not after the whole output is buffered.
func TestOutputLimit(t *testing.T) {
	x := randomSparse([]uint64{4000, 5}, 5000, 921)
	y := denseTensor([]uint64{5, 2})
	cmX, cmY := []int{1}, []int{0}
	full, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	const limit, chunk = 100, 8
	setChunkCap(t, chunk)
	check := func(name string, threads int, early bool, err error) {
		t.Helper()
		var e *OutputTooLargeError
		if !errors.Is(err, ErrOutputTooLarge) || !errors.As(err, &e) {
			t.Fatalf("%s: got %v, want an ErrOutputTooLarge", name, err)
		}
		if e.Limit != limit || e.Got <= limit || e.Got > full.NNZ() {
			t.Fatalf("%s: got/limit = %d/%d, want limit %d < got <= %d", name, e.Got, e.Limit, limit, full.NNZ())
		}
		if early && e.Got > limit+threads*chunk {
			t.Errorf("%s: stopped at %d outputs, want within %d of the limit %d (the full output is %d)",
				name, e.Got, threads*chunk, limit, full.NNZ())
		}
	}
	for _, threads := range []int{1, 2} {
		for _, alg := range []Algorithm{AlgSparta, AlgCOOHtA, AlgSPA} {
			_, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: alg, Threads: threads, MaxOutputNNZ: limit})
			check(alg.String(), threads, true, err)
		}
		_, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: AlgTwoPhase, Threads: threads, MaxOutputNNZ: limit})
		check("two-phase", threads, false, err)

		opt := Options{Algorithm: AlgSparta, Threads: threads, MaxOutputNNZ: limit}
		pr, err := PrepareY(y, cmY, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Windows of ~40 outputs: the bound trips in the third window, so
		// the account has to carry across resets.
		px, err := PrepareX(context.Background(), x, cmX, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = ContractStreamX(context.Background(), px, 20, pr, StreamOptions{Options: opt})
		check("streamed", threads, true, err)
	}

	// The exact bound still passes, on the chunked path too.
	z, _, err := Contract(x, y, cmX, cmY, Options{Algorithm: AlgSparta, Threads: 2, MaxOutputNNZ: full.NNZ()})
	if err != nil || !z.Equal(full) {
		t.Fatalf("exact bound: err %v", err)
	}
}

// TestRunOverflow: counts that do not fit zsub's int32 fields are refused by
// name instead of wrapping.
func TestRunOverflow(t *testing.T) {
	big64 := int64(math.MaxInt32) + 1
	big := int(big64)
	if int64(big) != big64 {
		t.Skip("int is 32 bits: the counts cannot exceed MaxInt32")
	}
	var w worker
	if c := w.openRun(3, big); c != nil || !errors.Is(w.err, ErrRunOverflow) {
		t.Errorf("run of %d entries: chunk %v, err %v", big, c != nil, w.err)
	}
	if err := checkSubTensorCount(big); !errors.Is(err, ErrRunOverflow) {
		t.Errorf("%d sub-tensors: %v", big, err)
	}
	if err := checkSubTensorCount(math.MaxInt32); err != nil {
		t.Errorf("MaxInt32 sub-tensors rejected: %v", err)
	}
}
