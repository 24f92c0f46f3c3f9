package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/obs"
)

// withDuplicates appends n rows that repeat coordinates of x and then makes
// every row's value its position, so the order rows with equal coordinates
// end up in is readable off the values and only a stable reorder keeps the
// order their products are summed in.
func withDuplicates(x *coo.Tensor, n int) *coo.Tensor {
	idx := make([]uint32, x.Order())
	for i := 0; i < n; i++ {
		x.Index(i*7%x.NNZ(), idx)
		x.Append(idx, 0)
	}
	for i := range x.Vals {
		x.Vals[i] = float64(i) + 0.5
	}
	return x
}

// TestPrepareX checks the value the server keeps its operands as: Tensor()
// is x itself when nothing has to move; otherwise it has x's dims and mode
// order, shares no column with x, leaves x as it was and keeps rows with
// equal coordinates in their relative order. Either way the kernel's view is
// the same columns under the contraction permutation — one copy of the rows
// — and contracting Tensor() finds stage ① done without changing one bit of
// the output.
func TestPrepareX(t *testing.T) {
	ctx := context.Background()
	x := withDuplicates(randomSparse([]uint64{9, 7, 11, 5}, 600, 31), 40)
	y := randomSparse([]uint64{9, 7, 6}, 200, 32)
	cx, cy := []int{0, 1}, []int{0, 1}
	perm := []int{2, 3, 0, 1}
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	before := x.Clone()

	px, err := PrepareX(ctx, x, cx, opt)
	if err != nil {
		t.Fatal(err)
	}
	xo := px.Tensor()
	if xo == x || px.sort.Stats.Sorted {
		t.Fatalf("leading contract modes should need a reorder: %+v", px.sort)
	}
	if !x.Equal(before) {
		t.Fatal("PrepareX changed its argument")
	}
	for m := range x.Inds {
		if xo.Dims[m] != x.Dims[m] || &xo.Inds[m][0] == &x.Inds[m][0] {
			t.Fatalf("mode %d: Tensor() must keep x's mode order in columns of its own", m)
		}
	}
	sharesColumns := func(px *PreparedX) {
		t.Helper()
		for k, m := range perm {
			if px.view.Dims[k] != px.t.Dims[m] || &px.view.Inds[k][0] != &px.t.Inds[m][0] {
				t.Fatalf("view mode %d is not Tensor()'s column %d: the rows are held twice", k, m)
			}
		}
		if &px.view.Vals[0] != &px.t.Vals[0] {
			t.Fatal("view and Tensor() hold separate values")
		}
	}
	sharesColumns(px)
	view := px.view
	if !view.IsSorted() {
		t.Fatal("view is not sorted under (free modes, contract modes)")
	}
	for i := 1; i < view.NNZ(); i++ {
		if view.Compare(i-1, i) == 0 && view.Vals[i-1] > view.Vals[i] {
			t.Fatalf("rows %d,%d: equal coordinates from x's rows %v, %v are out of their original order",
				i-1, i, view.Vals[i-1], view.Vals[i])
		}
	}
	want, err := view.SubPtr(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(px.ptrFX) != len(want) || px.maxSub != coo.MaxSubNNZ(want) {
		t.Fatalf("index has %d boundaries (largest sub-tensor %d), SubPtr says %d (%d)",
			len(px.ptrFX), px.maxSub, len(want), coo.MaxSubNNZ(want))
	}
	for f := range want {
		if px.ptrFX[f] != want[f] {
			t.Fatalf("ptrFX[%d] = %d, SubPtr says %d", f, px.ptrFX[f], want[f])
		}
	}

	// Already in order: x is used as it is and only the index is new.
	again, err := PrepareX(ctx, xo, cx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tensor() != xo || !again.sort.Stats.Sorted {
		t.Fatalf("a tensor already in order must come back itself: %+v", again.sort)
	}
	sharesColumns(again)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := PrepareX(ctx, xo, cx, Options{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got, index := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(again.ptrFX)); got > index+2048 || xo.Bytes() < 2*(index+2048) {
		t.Errorf("PrepareX of an ordered X allocated %d B (index %d B, rows %d B): it should allocate headers and the index only",
			got, index, xo.Bytes())
	}

	z, rep, err := Contract(x, y, cx, cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	zo, repo, err := Contract(xo, y, cx, cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.XSort.Stats.Sorted || !repo.XSort.Stats.Sorted || rep.XPrepared || repo.XPrepared {
		t.Fatalf("one-shot stage ① should sort x (%+v) and find xo sorted (%+v), XPrepared on neither",
			rep.XSort.Stats, repo.XSort.Stats)
	}
	if !z.Equal(zo) {
		t.Fatal("contracting the reordered tensor changed the output")
	}

	// The streamed tier windows the prepared form itself: its windows are
	// xo's columns, and their row ranges tile them in order.
	next, at := again.windows(64), 0
	for {
		win, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if win.view == nil {
			break
		}
		if win.view != again.view || win.ptrFX[0] != at {
			t.Fatalf("window at row %d: not a range of the prepared rows", at)
		}
		at = win.ptrFX[len(win.ptrFX)-1]
	}
	if at != xo.NNZ() {
		t.Fatalf("windows cover %d rows of %d", at, xo.NNZ())
	}

	if _, err := PrepareX(ctx, x, []int{4}, opt); err == nil {
		t.Fatal("out-of-range contract mode accepted")
	}
	if _, err := PrepareX(ctx, nil, cx, opt); err == nil {
		t.Fatal("nil tensor accepted")
	}
	empty, err := PrepareX(ctx, coo.MustNew([]uint64{3, 3}, 0), []int{0}, opt)
	if err != nil || empty.Tensor().NNZ() != 0 || len(empty.ptrFX) != 1 {
		t.Fatalf("empty tensor: %+v, %v", empty, err)
	}

	// A box too wide for one LN key sorts one key word at a time, as stably
	// as any other: its PreparedX may replace x like any other.
	wide := coo.MustNew([]uint64{1 << 32, 1 << 31, 6}, 0)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 200; i++ {
		wide.Append([]uint32{rng.Uint32() >> 28, rng.Uint32() >> 29, uint32(rng.Intn(6))}, 0)
	}
	wide = withDuplicates(wide, 60)
	wideBefore := wide.Clone()
	pw, err := PrepareX(ctx, wide, []int{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Tensor() == wide || !pw.view.IsSorted() || !wide.Equal(wideBefore) {
		t.Fatalf("wide box: Tensor() is x %v, view sorted %v, x unchanged %v",
			pw.Tensor() == wide, pw.view.IsSorted(), wide.Equal(wideBefore))
	}
	for i := 1; i < pw.view.NNZ(); i++ {
		if pw.view.Compare(i-1, i) == 0 && pw.view.Vals[i-1] > pw.view.Vals[i] {
			t.Fatalf("wide box rows %d,%d: equal coordinates out of their original order", i-1, i)
		}
	}
	yw := randomSparse([]uint64{6, 5}, 20, 36)
	zw, _, err := Contract(wide, yw, []int{2}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	zwo, _, err := Contract(pw.Tensor(), yw, []int{2}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !zw.Equal(zwo) {
		t.Fatal("wide box: contracting Tensor() differs from contracting x")
	}
}

// TestWideBoxContractOracle: an X whose index box is too wide for one LN key
// (Flickr's full dims, about 1.1e22) with duplicate coordinates gives
// bitwise the same Z from the one-shot Contract, from PreparedY.ContractX on
// its PreparedX, and from ContractStreamX over that PreparedX at window caps
// 1 and 13: every path sorts X with the same stable sorter.
func TestWideBoxContractOracle(t *testing.T) {
	ctx := context.Background()
	dims := []uint64{319686, 28153045, 1607191, 731}
	rng := rand.New(rand.NewSource(41))
	x := coo.MustNew(dims, 0)
	idx := make([]uint32, len(dims))
	for i := 0; i < 3000; i++ {
		// Few distinct free coordinates, so sub-tensors hold several rows.
		for m := 0; m < 3; m++ {
			idx[m] = uint32(uint64(rng.Intn(8)) * (dims[m] / 8))
		}
		idx[3] = uint32(rng.Intn(int(dims[3])))
		x.Append(idx, 0)
	}
	x = withDuplicates(x, 400)
	if _, err := x.Radix(); err == nil {
		t.Fatal("test setup: Flickr's box fits one LN key")
	}
	y := randomSparse([]uint64{731, 40}, 2000, 42)
	cx, cy := []int{3}, []int{0}
	for _, threads := range []int{1, 3} {
		opt := Options{Threads: threads}
		want, _, err := Contract(x, y, cx, cy, opt)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := PrepareY(y, cy, opt)
		if err != nil {
			t.Fatal(err)
		}
		px, err := PrepareX(ctx, x, cx, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := pr.ContractX(ctx, px, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("threads=%d: ContractX on the stored PreparedX differs from Contract", threads)
		}
		for _, limit := range []int{1, 13} {
			zs, rep, err := ContractStreamX(ctx, px, limit, pr, StreamOptions{Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			if !zs.Equal(want) || rep.Windows < 2 {
				t.Fatalf("threads=%d window cap %d: streamed Z equal %v in %d windows", threads, limit, zs.Equal(want), rep.Windows)
			}
		}
	}
}

// TestContractXMatchesOneShot is the oracle for the prepared-X path:
// PrepareY(y).ContractX(PrepareX(x)) is bitwise Contract(x, y) and
// PreparedY.Contract(x), the first use of a PreparedX reports the reorder
// the way the one-shot path does and every later use reports XPrepared with
// nothing left of X in StageInput's account, over shapes that include an X
// already in order, duplicate coordinates, an empty X, a fully contracted X
// (one sub-tensor) and a scalar output.
func TestContractXMatchesOneShot(t *testing.T) {
	ctx := context.Background()
	type shape struct {
		name   string
		x, y   *coo.Tensor
		cx, cy []int
	}
	table := func(xd, yd []uint64, cx, cy []int, seed int64) shape {
		return shape{"", randomSparse(xd, 40*len(xd), seed), randomSparse(yd, 30*len(yd), seed+100), cx, cy}
	}
	shapes := []shape{
		table([]uint64{5, 6, 4, 3}, []uint64{4, 3, 7}, []int{2, 3}, []int{0, 1}, 1700), // X already in order
		table([]uint64{8, 9}, []uint64{9, 7}, []int{1}, []int{0}, 1701),
		table([]uint64{4, 5, 3, 6}, []uint64{6, 2, 5}, []int{3, 1}, []int{0, 2}, 1702),
		table([]uint64{3, 20}, []uint64{20}, []int{1}, []int{0}, 1703),        // Z has no Y modes
		table([]uint64{6, 5}, []uint64{5, 6}, []int{0, 1}, []int{1, 0}, 1704), // scalar Z
		table([]uint64{20}, []uint64{20, 9, 8}, []int{0}, []int{0}, 1705),     // fully contracted X: one sub-tensor
		table([]uint64{7, 6, 5}, []uint64{7, 6, 4}, []int{0, 1}, []int{0, 1}, 1706),
		{"duplicates", withDuplicates(randomSparse([]uint64{9, 7, 11, 5}, 600, 31), 40),
			randomSparse([]uint64{9, 7, 6}, 200, 32), []int{0, 1}, []int{0, 1}},
		{"empty X", coo.MustNew([]uint64{6, 5}, 0), randomSparse([]uint64{6, 4}, 12, 34), []int{0}, []int{0}},
	}
	for si, s := range shapes {
		for _, threads := range []int{1, 2, 8} {
			opt := Options{Threads: threads}
			want, _, err := Contract(s.x, s.y, s.cx, s.cy, opt)
			if err != nil {
				t.Fatalf("shape %d %s: one-shot: %v", si, s.name, err)
			}
			pr, err := PrepareY(s.y, s.cy, opt)
			if err != nil {
				t.Fatal(err)
			}
			viaY, _, err := pr.Contract(ctx, s.x, s.cx, opt)
			if err != nil {
				t.Fatal(err)
			}
			px, err := PrepareX(ctx, s.x, s.cx, opt)
			if err != nil {
				t.Fatal(err)
			}
			if si == 0 && px.Tensor() != s.x {
				t.Fatalf("shape 0: trailing contract modes of a sorted X: Tensor() should be x")
			}
			for use := 1; use <= 3; use++ {
				got, rep, err := pr.ContractX(ctx, px, opt)
				if err != nil {
					t.Fatalf("shape %d %s threads=%d use %d: %v", si, s.name, threads, use, err)
				}
				if !got.Equal(want) || !got.Equal(viaY) {
					t.Fatalf("shape %d %s threads=%d use %d: ContractX differs from the one-shot output", si, s.name, threads, use)
				}
				if rep.XPrepared != (use > 1) || (use > 1 && rep.XSort != coo.SortInfo{}) {
					t.Fatalf("shape %d use %d: XPrepared %v, XSort %+v", si, use, rep.XPrepared, rep.XSort)
				}
				if use == 1 && rep.XSort != px.sort {
					t.Fatalf("shape %d: first use reports %+v, the reorder was %+v", si, rep.XSort, px.sort)
				}
				if rep.NF != len(px.ptrFX)-1 || rep.MaxSubNNZX != px.maxSub || rep.NNZX != s.x.NNZ() {
					t.Fatalf("shape %d use %d: report has NF %d, MaxSubNNZX %d, NNZX %d", si, use, rep.NF, rep.MaxSubNNZX, rep.NNZX)
				}
			}
		}
	}

	// The entry points' own checks.
	y := randomSparse([]uint64{6, 4}, 12, 35)
	pr, err := PrepareY(y, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.ContractX(ctx, nil, Options{}); err == nil {
		t.Error("nil PreparedX accepted")
	}
	px, err := PrepareX(ctx, randomSparse([]uint64{5, 7}, 12, 36), []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.ContractX(ctx, px, Options{}); err == nil {
		t.Error("contract-mode size mismatch accepted")
	}
	if _, _, err := pr.ContractX(ctx, px, Options{Algorithm: AlgSPA}); err == nil {
		t.Error("baseline algorithm accepted by the prepared path")
	}
}

// TestPreparedXSharedByConcurrentContractions: one PreparedX and one
// PreparedY serve eight contractions at once (run under -race), each with
// its own registry, and every output is the one-shot tensor.
func TestPreparedXSharedByConcurrentContractions(t *testing.T) {
	ctx := context.Background()
	x := withDuplicates(randomSparse([]uint64{12, 9, 14, 6}, 3000, 41), 200)
	y := randomSparse([]uint64{12, 9, 7}, 400, 42)
	cx, cy := []int{0, 1}, []int{0, 1}
	want, _, err := Contract(x, y, cx, cy, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	px, err := PrepareX(ctx, x, cx, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareY(y, cy, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var fresh sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			z, rep, err := pr.ContractX(ctx, px, Options{Threads: 1 + g%3, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if !z.Equal(want) {
				t.Errorf("goroutine %d: output differs from the one-shot contraction", g)
			}
			if !rep.XPrepared {
				fresh.Store(g, true)
			}
		}(g)
	}
	wg.Wait()
	n := 0
	fresh.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Errorf("%d of 8 contractions reported the reorder as theirs, want exactly the first", n)
	}
}

// TestInPlaceOneShotSortsTheCallersTensor: Options.InPlace still means what
// it says now that stage ① lives in PrepareX — the caller's X comes back
// permuted to contraction order and sorted, sharing the kernel's columns —
// and nothing is touched when validation fails first.
func TestInPlaceOneShotSortsTheCallersTensor(t *testing.T) {
	x := randomSparse([]uint64{9, 7, 11}, 500, 51)
	y := randomSparse([]uint64{9, 6}, 80, 52)
	want, _, err := Contract(x, y, []int{0}, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := x.Clone()
	if _, _, err := Contract(x, y, []int{0}, []int{1}, Options{InPlace: true}); err == nil || !x.Equal(orig) {
		t.Fatalf("a rejected InPlace call must leave x alone (err %v)", err)
	}
	pr, err := PrepareY(y, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*coo.Tensor) (*coo.Tensor, *Report, error){
		"one-shot": func(x *coo.Tensor) (*coo.Tensor, *Report, error) {
			return Contract(x, y.Clone(), []int{0}, []int{0}, Options{InPlace: true})
		},
		"prepared Y": func(x *coo.Tensor) (*coo.Tensor, *Report, error) {
			return pr.Contract(context.Background(), x, []int{0}, Options{InPlace: true})
		},
	} {
		xc := orig.Clone()
		z, _, err := run(xc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !z.Equal(want) {
			t.Fatalf("%s: InPlace changed the output", name)
		}
		if xc.Dims[0] != 7 || xc.Dims[1] != 11 || xc.Dims[2] != 9 || !xc.IsSorted() {
			t.Fatalf("%s: the caller's tensor has dims %v, sorted %v: InPlace should leave it in contraction order",
				name, xc.Dims, xc.IsSorted())
		}
	}
}
