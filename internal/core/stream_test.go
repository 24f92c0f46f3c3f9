package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/invariant"
)

// TestContractStreamMatchesInMemory is the out-of-core driver's bitwise
// oracle: for a sweep of window sizes and both Z sinks (heap merge and file
// spool), the streamed result must equal the one-shot in-memory contraction
// exactly — same coordinates, same values, same order.
func TestContractStreamMatchesInMemory(t *testing.T) {
	x := randomSparse([]uint64{40, 9, 8}, 700, 31)
	y := randomSparse([]uint64{8, 7}, 80, 32)
	cmX, cmY := []int{2}, []int{0}
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	pr, err := PrepareY(y, cmY, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(context.Background(), x, cmX, opt)
	if err != nil {
		t.Fatal(err)
	}
	px, err := PrepareX(context.Background(), x, cmX, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, windowNNZ := range []int{0, 13, 100, 1 << 20} {
		for _, spill := range []bool{false, true} {
			z, rep, err := ContractStreamX(context.Background(), px, windowNNZ, pr,
				StreamOptions{Options: opt, SpillZ: spill, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatalf("window %d spill %v: %v", windowNNZ, spill, err)
			}
			if !z.Equal(want) {
				t.Fatalf("window %d spill %v: streamed output differs from in-memory",
					windowNNZ, spill)
			}
			if !rep.Streamed {
				t.Error("report not marked streamed")
			}
			if rep.SpilledZ != spill {
				t.Errorf("report SpilledZ = %v, want %v", rep.SpilledZ, spill)
			}
			if windowNNZ == 13 && rep.Windows < 2 {
				t.Errorf("window cap 13 ran in %d windows", rep.Windows)
			}
			if windowNNZ == 1<<20 && rep.Windows != 1 {
				t.Errorf("uncapped stream ran in %d windows", rep.Windows)
			}
			if rep.NNZZ != want.NNZ() {
				t.Errorf("report NNZZ = %d, want %d", rep.NNZZ, want.NNZ())
			}
		}
	}
}

// TestContractStreamXMatchesContractX is the bitwise oracle of the prepared
// window source: streaming a PreparedX equals contracting it in memory, with
// the same account, for window caps from one row (every sub-tensor its own
// window) to unbounded, both sinks and 1/2/8 threads, over an X already in
// contraction order, one that needs a reorder, duplicate coordinates, an
// empty X, a fully contracted X (one window), a scalar output and the
// dense-accumulator shapes.
func TestContractStreamXMatchesContractX(t *testing.T) {
	ctx := context.Background()
	type shape struct {
		name     string
		x, y     *coo.Tensor
		cmX, cmY []int
	}
	shapes := []shape{
		{"in order", randomSparse([]uint64{5, 6, 4, 3}, 160, 1800), randomSparse([]uint64{4, 3, 7}, 90, 1801), []int{2, 3}, []int{0, 1}},
		{"reorder", randomSparse([]uint64{7, 6, 5}, 150, 1802), randomSparse([]uint64{7, 6, 4}, 90, 1803), []int{0, 1}, []int{0, 1}},
		{"duplicates", withDuplicates(randomSparse([]uint64{9, 7, 11, 5}, 600, 31), 40),
			randomSparse([]uint64{9, 7, 6}, 200, 32), []int{0, 1}, []int{0, 1}},
		{"empty X", coo.MustNew([]uint64{6, 5}, 0), randomSparse([]uint64{6, 4}, 12, 34), []int{0}, []int{0}},
		{"fully contracted X", randomSparse([]uint64{20}, 15, 1804), randomSparse([]uint64{20, 9, 8}, 200, 1805), []int{0}, []int{0}},
		{"scalar", randomSparse([]uint64{6, 5}, 25, 1806), randomSparse([]uint64{5, 6}, 20, 1807), []int{0, 1}, []int{1, 0}},
	}
	for _, c := range denseCases() {
		shapes = append(shapes, shape{"dense: " + c.name, c.x, c.y, c.cmX, c.cmY})
	}
	for _, s := range shapes {
		for _, threads := range []int{1, 2, 8} {
			opt := Options{Threads: threads}
			pr, err := PrepareY(s.y, s.cmY, opt)
			if err != nil {
				t.Fatal(err)
			}
			px, err := PrepareX(ctx, s.x, s.cmX, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRep, err := pr.ContractX(ctx, px, opt)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			for _, limit := range []int{0, 1, 13, 100, 1 << 20} {
				for _, spill := range []bool{false, true} {
					z, rep, err := ContractStreamX(ctx, px, limit, pr,
						StreamOptions{Options: opt, SpillZ: spill, SpillDir: t.TempDir()})
					if err != nil {
						t.Fatalf("%s threads=%d cap=%d spill=%v: %v", s.name, threads, limit, spill, err)
					}
					if d := bitwiseDiff(z, want); d != "" {
						t.Fatalf("%s threads=%d cap=%d spill=%v: streamed Z differs from ContractX: %s", s.name, threads, limit, spill, d)
					}
					if rep.NF != wantRep.NF || rep.Products != wantRep.Products || rep.NNZZ != wantRep.NNZZ ||
						rep.DenseSubs != wantRep.DenseSubs || rep.HitsY != wantRep.HitsY {
						t.Errorf("%s threads=%d cap=%d: account NF/products/nnzZ/dense/hits %d/%d/%d/%d/%d, in memory %d/%d/%d/%d/%d",
							s.name, threads, limit, rep.NF, rep.Products, rep.NNZZ, rep.DenseSubs, rep.HitsY,
							wantRep.NF, wantRep.Products, wantRep.NNZZ, wantRep.DenseSubs, wantRep.HitsY)
					}
					wantWindows := 1
					if limit == 1 && rep.NF > 1 {
						wantWindows = rep.NF
					}
					if (limit == 1 || limit == 0 || limit == 1<<20) && rep.Windows != wantWindows {
						t.Errorf("%s cap=%d: %d windows for %d sub-tensors, want %d", s.name, limit, rep.Windows, rep.NF, wantWindows)
					}
					if !rep.Streamed || rep.SpilledZ != spill || !rep.XPrepared {
						t.Errorf("%s: streamed %v, spilled %v, x prepared %v", s.name, rep.Streamed, rep.SpilledZ, rep.XPrepared)
					}
				}
			}
		}
	}
}

// TestContractStreamXLeadingModes: an X whose contract mode leads is
// reordered once, by PrepareX, and left as it was; the windows are sub-slices
// of the prepared index over the prepared columns, tile it in order, and
// contract to the in-memory result.
func TestContractStreamXLeadingModes(t *testing.T) {
	ctx := context.Background()
	x := randomSparse([]uint64{5, 20, 6}, 300, 36)
	y := randomSparse([]uint64{5, 8}, 40, 37)
	opt := Options{Algorithm: AlgSparta}
	pr, err := PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(ctx, x, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	clone := x.Clone()
	px, err := PrepareX(ctx, x, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(clone) {
		t.Fatal("PrepareX without InPlace mutated the caller's tensor")
	}
	next, at := px.windows(50), 0
	for {
		win, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if win.view == nil {
			break
		}
		n := len(win.ptrFX) - 1
		if win.view != px.view || &win.ptrFX[0] != &px.ptrFX[at] || n < 1 {
			t.Fatalf("window at sub-tensor %d is not a slice of the prepared index over the prepared rows", at)
		}
		if rows := win.ptrFX[n] - win.ptrFX[0]; rows > 50 && n > 1 {
			t.Errorf("window at sub-tensor %d holds %d rows in %d sub-tensors, over the cap", at, rows, n)
		}
		at += n
	}
	if at != len(px.ptrFX)-1 {
		t.Fatalf("windows covered %d of %d sub-tensors", at, len(px.ptrFX)-1)
	}
	z, _, err := ContractStreamX(ctx, px, 50, pr, StreamOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want) || !x.Equal(clone) {
		t.Fatal("streaming the prepared X differs from in-memory, or touched the caller's tensor")
	}
}

// TestContractStreamXSharedByConcurrentStreams: one PreparedX and one
// PreparedY serve eight streamed contractions at once, window caps and thread
// counts differing (run under -race), as the server's streamed tier does with
// a stored operand; every output is the in-memory one.
func TestContractStreamXSharedByConcurrentStreams(t *testing.T) {
	ctx := context.Background()
	x := withDuplicates(randomSparse([]uint64{12, 9, 14, 6}, 3000, 43), 200)
	y := randomSparse([]uint64{12, 9, 7}, 400, 44)
	opt := Options{Threads: 2}
	px, err := PrepareX(ctx, x, []int{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareY(y, []int{0, 1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.ContractX(ctx, px, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			z, _, err := ContractStreamX(ctx, px, 50+100*g, pr, StreamOptions{Options: Options{Threads: 1 + g%3}})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if d := bitwiseDiff(z, want); d != "" {
				t.Errorf("goroutine %d: %s", g, d)
			}
		}(g)
	}
	wg.Wait()
}

// TestPreparedXWindowsGroupLikeAFile: windows of a prepared X group whole
// sub-tensors greedily up to the cap, by the rule coo's TestGroupCapped pins
// for a file's stored chunks, and an empty X is one empty window.
func TestPreparedXWindowsGroupLikeAFile(t *testing.T) {
	cuts := func(ptr []int, limit int) []int {
		next, out := (&PreparedX{ptrFX: ptr}).windows(limit), []int{ptr[0]}
		for {
			win, err := next()
			if err != nil {
				t.Fatal(err)
			}
			if win.ptrFX == nil {
				return out
			}
			out = append(out, win.ptrFX[len(win.ptrFX)-1])
		}
	}
	ptr := []int{0, 10, 25, 30, 100, 110}
	for _, c := range []struct {
		limit int
		want  []int
	}{
		{0, []int{0, 110}},
		{1000, []int{0, 110}},
		{30, []int{0, 30, 100, 110}},
		{1, []int{0, 10, 25, 30, 100, 110}},
		{70, []int{0, 30, 100, 110}},
	} {
		if got := cuts(ptr, c.limit); !slices.Equal(got, c.want) {
			t.Errorf("cap %d: windows end at %v, want %v", c.limit, got, c.want)
		}
	}
	if got := cuts([]int{0}, 5); !slices.Equal(got, []int{0, 0}) {
		t.Errorf("empty X: windows end at %v, want one empty window", got)
	}
}

// TestContractStreamXCopiesNothing: streaming a prepared X allocates less
// than one copy of X's columns, nnz × (4·order + 8) bytes — the windows are
// slices of the prepared rows and index, and with a small output what is
// left is the workers, the per-window runs and Z. Adapting a resident X into
// a window stream used to clone, permute and re-sort it: a copy at least.
func TestContractStreamXCopiesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("-tags assert: the invariant checks box their arguments, which allocates")
	}
	ctx := context.Background()
	x := randomSparse([]uint64{400, 60, 50}, 60000, 1810)
	y := randomSparse([]uint64{60, 50, 3}, 2000, 1811)
	cmX, cmY := []int{1, 2}, []int{0, 1}
	opt := StreamOptions{Options: Options{Threads: 2}}
	pr, err := PrepareY(y, cmY, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	px, err := PrepareX(ctx, x, cmX, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	copyBytes := uint64(x.NNZ()) * uint64(4*x.Order()+8)
	for try := 0; try < 2; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		z, rep, err := ContractStreamX(ctx, px, 2000, pr, opt)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Windows < 20 || z.NNZ() == 0 {
			t.Fatalf("shape drifted: %d windows, nnz(Z) %d", rep.Windows, z.NNZ())
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("try %d: %d windows, %d B allocated, a copy of X is %d B", try, rep.Windows, got, copyBytes)
		if got >= copyBytes {
			t.Errorf("try %d: streaming %d windows allocated %d B, one copy of X's columns is %d B",
				try, rep.Windows, got, copyBytes)
		}
	}
}

// mappedStream saves x — sorted, in contraction order — as a v2 file and
// streams it back in windows of at most windowNNZ non-zeros.
func mappedStream(t *testing.T, x *coo.Tensor, windowNNZ int) XStream {
	t.Helper()
	path := t.TempDir() + "/x.sptn"
	if err := x.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := coo.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	xs, err := m.Stream(windowNNZ)
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

// TestContractStreamMappedFile runs the full out-of-core loop: X saved as a
// sorted v2 file, opened as an mmap view, streamed against the prepared
// table, and compared bitwise with the in-memory result.
func TestContractStreamMappedFile(t *testing.T) {
	// X already in contraction order (free modes first) so the sorted file
	// is directly streamable; enough non-zeros that the file stores more
	// than one DefaultWindowNNZ chunk.
	x := randomSparse([]uint64{4096, 6, 5}, 12000, 33)
	y := randomSparse([]uint64{5, 9}, 70, 34)
	cmX, cmY := []int{2}, []int{0}
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	pr, err := PrepareY(y, cmY, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(context.Background(), x, cmX, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.sptn"
	if err := x.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := coo.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	xs, err := m.Stream(200)
	if err != nil {
		t.Fatal(err)
	}
	z, rep, err := ContractStream(context.Background(), xs, pr, StreamOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(want) {
		t.Fatal("mmap-streamed output differs from in-memory")
	}
	if rep.Windows < 2 {
		t.Fatalf("expected multiple windows, got %d", rep.Windows)
	}
}

// TestContractStreamXErrors: the prepared-X entry refuses a nil operand, a
// PreparedX whose contract modes do not pair with the table's, a baseline
// algorithm and mismatched contract sizes; it stops on MaxOutputNNZ mid-stream
// and on a canceled context. Bad modes never get that far: PrepareX refuses
// them.
func TestContractStreamXErrors(t *testing.T) {
	ctx := context.Background()
	x := randomSparse([]uint64{10, 6, 5}, 120, 38)
	y := randomSparse([]uint64{5, 4}, 30, 39)
	opt := StreamOptions{Options: Options{Algorithm: AlgSparta}}
	pr, err := PrepareY(y, []int{0}, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(x *coo.Tensor, cmX []int) *PreparedX {
		t.Helper()
		px, err := PrepareX(ctx, x, cmX, opt.Options)
		if err != nil {
			t.Fatal(err)
		}
		return px
	}
	px := prepare(x, []int{2})

	if _, _, err := ContractStreamX(ctx, nil, 0, pr, opt); err == nil {
		t.Error("nil prepared X accepted")
	}
	if _, _, err := ContractStreamX(ctx, px, 0, nil, opt); err == nil {
		t.Error("nil prepared Y accepted")
	}
	if _, err := PrepareX(ctx, nil, []int{0}, opt.Options); err == nil {
		t.Error("nil tensor prepared")
	}
	if _, err := PrepareX(ctx, x, []int{7}, opt.Options); err == nil {
		t.Error("out-of-range contract mode prepared")
	}
	for _, cmX := range [][]int{nil, {1, 2}} {
		if _, _, err := ContractStreamX(ctx, prepare(x, cmX), 0, pr, opt); err == nil {
			t.Errorf("X prepared over %v streamed against a table of one contract mode", cmX)
		}
	}
	bad := opt
	bad.Algorithm = AlgSPA
	if _, _, err := ContractStreamX(ctx, px, 0, pr, bad); err == nil {
		t.Error("non-Sparta algorithm accepted")
	}
	_, _, err = ContractStreamX(ctx, prepare(randomSparse([]uint64{10, 6, 7}, 120, 40), []int{2}), 0, pr, opt)
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Errorf("dim mismatch: got %v", err)
	}

	capped := opt
	capped.MaxOutputNNZ = 1
	if _, _, err := ContractStreamX(ctx, px, 20, pr, capped); !errors.Is(err, ErrOutputTooLarge) {
		t.Errorf("MaxOutputNNZ=1: got %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := ContractStreamX(canceled, px, 20, pr, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: got %v", err)
	}
}

// TestContractStreamErrors: the file entry's own checks — a nil stream or
// table, a baseline algorithm, mismatched contract sizes, an X with no free
// mode (file windows end at mode-0 changes, which split its one sub-tensor)
// — and the same mid-stream stops as every path.
func TestContractStreamErrors(t *testing.T) {
	ctx := context.Background()
	x := randomSparse([]uint64{10, 6, 5}, 120, 38)
	y := randomSparse([]uint64{5, 4}, 30, 39)
	opt := StreamOptions{Options: Options{Algorithm: AlgSparta}}
	pr, err := PrepareY(y, []int{0}, opt.Options)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := ContractStream(ctx, nil, pr, opt); err == nil {
		t.Error("nil stream accepted")
	}
	if _, _, err := ContractStream(ctx, mappedStream(t, x, 0), nil, opt); err == nil {
		t.Error("nil prepared table accepted")
	}
	bad := opt
	bad.Algorithm = AlgSPA
	if _, _, err := ContractStream(ctx, mappedStream(t, x, 0), pr, bad); err == nil {
		t.Error("non-Sparta algorithm accepted")
	}
	x2 := randomSparse([]uint64{10, 6, 7}, 120, 40)
	_, _, err = ContractStream(ctx, mappedStream(t, x2, 0), pr, opt)
	if err == nil || !strings.Contains(err.Error(), "size") {
		t.Errorf("dim mismatch: got %v", err)
	}
	prAll, err := PrepareY(x, []int{0, 1, 2}, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ContractStream(ctx, mappedStream(t, x, 0), prAll, opt); err == nil {
		t.Error("fully contracted file stream accepted")
	}

	capped := opt
	capped.MaxOutputNNZ = 1
	if _, _, err := ContractStream(ctx, mappedStream(t, x, 0), pr, capped); !errors.Is(err, ErrOutputTooLarge) {
		t.Errorf("MaxOutputNNZ=1: got %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := ContractStream(canceled, mappedStream(t, x, 0), pr, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: got %v", err)
	}
}
