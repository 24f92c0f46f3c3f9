package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
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
		win := next()
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

// TestPreparedXWindowsGroupLikeAFile: windows of a prepared X — a resident
// one or a mapped file's — group whole sub-tensors greedily up to the cap, a
// sub-tensor above the cap is a window of its own, and an empty X is one
// empty window.
func TestPreparedXWindowsGroupLikeAFile(t *testing.T) {
	cuts := func(ptr []int, limit int) []int {
		next, out := (&PreparedX{ptrFX: ptr}).windows(limit), []int{ptr[0]}
		for {
			win := next()
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
		{0, []int{0, 110}},                  // no cap: one window
		{1000, []int{0, 110}},               // everything fits one window
		{30, []int{0, 30, 100, 110}},        // merge up to the cap
		{1, []int{0, 10, 25, 30, 100, 110}}, // nothing merges
		{70, []int{0, 30, 100, 110}},        // the 70-row sub-tensor stays whole
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
// Preparing the same X from a mapped file allocates only its index.
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

	// x is in contraction order, so preparing it from a mapped file moves
	// no row: what PrepareX allocates is its index, O(sub-tensors), below
	// one index column of the file, 4 B × nnz.
	m, err := openBytes(t, v2Bytes(t, x))
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mpx, err := PrepareX(ctx, m.Tensor(), cmX, opt.Options)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	got, col := m1.TotalAlloc-m0.TotalAlloc, uint64(4*x.NNZ())
	t.Logf("PrepareX over the mapped file: %d B allocated for %d sub-tensors", got, len(mpx.ptrFX)-1)
	if got >= col || mpx.Tensor() != m.Tensor() {
		t.Errorf("PrepareX over the mapped file allocated %d B for %d sub-tensors (one column is %d B), in place %v",
			got, len(mpx.ptrFX)-1, col, mpx.Tensor() == m.Tensor())
	}
}

// v2Bytes is x in the v2 file format, as SaveBinV2 writes it.
func v2Bytes(t *testing.T, x *coo.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteBinV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openBytes writes a v2 file image and opens it as a mapped view, closed
// when the test ends.
func openBytes(t *testing.T, b []byte) (*coo.Mapped, error) {
	t.Helper()
	path := t.TempDir() + "/x.sptn"
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := coo.OpenMapped(path)
	if err == nil {
		t.Cleanup(func() { _ = m.Close() })
	}
	return m, err
}

// mappedStream saves x — sorted, in contraction order — as a v2 file and
// streams it back in windows of at most windowNNZ non-zeros.
func mappedStream(t *testing.T, x *coo.Tensor, windowNNZ int) coo.Stream {
	t.Helper()
	m, err := openBytes(t, v2Bytes(t, x))
	if err != nil {
		t.Fatal(err)
	}
	xs, err := m.Stream(windowNNZ)
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

// TestContractStreamMappedFile runs the full out-of-core loop over a v2 file
// opened as an mmap view, by both routes a mapped X takes — ContractStream
// over Mapped.Stream, and PrepareX over Mapped.Tensor then ContractStreamX —
// and compares each bitwise with PreparedY.Contract. The files:
//   - a sorted one, which PrepareX uses where it lies (Tensor() is the
//     mapping);
//   - the same rows with a window index after the dims, as files written
//     before the index was dropped carry one;
//   - unsorted rows under a set sorted flag, which PrepareX sorts into fresh
//     columns, leaving the mapping as it was.
func TestContractStreamMappedFile(t *testing.T) {
	ctx := context.Background()
	// X already in contraction order (free modes first).
	x := randomSparse([]uint64{4096, 6, 5}, 12000, 33)
	y := randomSparse([]uint64{5, 9}, 70, 34)
	cmX, cmY := []int{2}, []int{0}
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	pr, err := PrepareY(y, cmY, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pr.Contract(ctx, x, cmX, opt)
	if err != nil {
		t.Fatal(err)
	}

	sorted := v2Bytes(t, x)
	dimsEnd := 32 + 8*x.Order()
	var index []byte // a start at every mode-0 change 100 rows on
	for i, last := 0, -100; i < x.NNZ(); i++ {
		if i == 0 || (x.Inds[0][i] != x.Inds[0][i-1] && i-last >= 100) {
			index, last = binary.LittleEndian.AppendUint64(index, uint64(i)), i
		}
	}
	indexed := slices.Concat(sorted[:dimsEnd], index, sorted[dimsEnd:])
	binary.LittleEndian.PutUint64(indexed[24:], uint64(len(index)/8))
	reversed, idx := coo.MustNew(x.Dims, x.NNZ()), make([]uint32, x.Order())
	for i := x.NNZ() - 1; i >= 0; i-- {
		x.Index(i, idx)
		reversed.Append(idx, x.Vals[i])
	}
	flagged := v2Bytes(t, reversed)
	flagged[12] |= 1 // the sorted flag, on rows in descending order

	for _, f := range []struct {
		name    string
		b       []byte
		inPlace bool // rows already in contraction order
	}{{"sorted", sorted, true}, {"window index", indexed, true}, {"sorted flag on unsorted rows", flagged, false}} {
		m, err := openBytes(t, f.b)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		stored := m.Tensor().Clone()
		xs, err := m.Stream(200)
		if err != nil {
			t.Fatal(err)
		}
		z, rep, err := ContractStream(ctx, xs, pr, StreamOptions{Options: opt})
		if err != nil {
			t.Fatalf("%s: ContractStream: %v", f.name, err)
		}
		if d := bitwiseDiff(z, want); d != "" {
			t.Fatalf("%s: ContractStream differs from in-memory: %s", f.name, d)
		}
		if rep.Windows < 2 {
			t.Fatalf("%s: expected multiple windows, got %d", f.name, rep.Windows)
		}
		px, err := PrepareX(ctx, m.Tensor(), cmX, opt)
		if err != nil {
			t.Fatalf("%s: PrepareX: %v", f.name, err)
		}
		if got := px.Tensor() == m.Tensor(); got != f.inPlace {
			t.Errorf("%s: prepared operand is the mapping: %v, want %v", f.name, got, f.inPlace)
		}
		z, _, err = ContractStreamX(ctx, px, 200, pr, StreamOptions{Options: opt})
		if err != nil {
			t.Fatalf("%s: ContractStreamX: %v", f.name, err)
		}
		if d := bitwiseDiff(z, want); d != "" {
			t.Fatalf("%s: PrepareX + ContractStreamX differs from in-memory: %s", f.name, d)
		}
		if !m.Tensor().Equal(stored) {
			t.Fatalf("%s: contracting the mapped file changed its rows", f.name)
		}
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
// table, a baseline algorithm, mismatched contract sizes — the same
// mid-stream stops as every path, and a mapped file with an index at its
// mode's size, refused with a named error on both routes before anything
// encodes it. A fully contracted X is one sub-tensor, so it streams as one
// window and equals the in-memory result.
func TestContractStreamErrors(t *testing.T) {
	ctx := context.Background()
	x := randomSparse([]uint64{10, 6, 5}, 120, 38)
	y := randomSparse([]uint64{5, 4}, 30, 39)
	opt := StreamOptions{Options: Options{Algorithm: AlgSparta}}
	pr, err := PrepareY(y, []int{0}, opt.Options)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := ContractStream(ctx, coo.Stream{}, pr, opt); err == nil {
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
	wantAll, _, err := prAll.Contract(ctx, x, []int{0, 1, 2}, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	z, rep, err := ContractStream(ctx, mappedStream(t, x, 5), prAll, opt)
	if err != nil {
		t.Fatalf("fully contracted file stream: %v", err)
	}
	if d := bitwiseDiff(z, wantAll); d != "" || rep.Windows != 1 {
		t.Errorf("fully contracted file stream: %d windows, %s", rep.Windows, d)
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

	// The last row's mode-0 index set to the mode's size: still sorted, out
	// of range.
	b := v2Bytes(t, x)
	binary.LittleEndian.PutUint32(b[32+8*x.Order()+4*(x.NNZ()-1):], uint32(x.Dims[0]))
	m, err := openBytes(t, b)
	if err != nil {
		// The heap fallback validates at open.
		if !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("out-of-range index: open failed with %v", err)
		}
		return
	}
	xs, err := m.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ContractStream(ctx, xs, pr, opt); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index, ContractStream: got %v", err)
	}
	if _, err := PrepareX(ctx, m.Tensor(), []int{2}, opt.Options); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index, PrepareX: got %v", err)
	}
}
