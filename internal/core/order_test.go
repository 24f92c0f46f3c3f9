package core

import (
	"testing"

	"sparta/internal/coo"
)

// TestInContractionOrder checks the entry the server keeps its operands
// with: x comes back itself when nothing has to move; otherwise the result
// has x's dims and mode order, shares no column with x, leaves x as it was,
// keeps rows with equal coordinates in their relative order, and makes the
// contraction's own stage ① a no-op without changing one bit of its output.
func TestInContractionOrder(t *testing.T) {
	x := randomSparse([]uint64{9, 7, 11, 5}, 600, 31)
	// Duplicate coordinates with distinct values: only a stable reorder
	// keeps the order their products are summed in.
	for i := 0; i < 40; i++ {
		idx := make([]uint32, 4)
		x.Index(i*7, idx)
		x.Append(idx, 0)
	}
	for i := range x.Vals {
		x.Vals[i] = float64(i) + 0.5 // a row's value is its position in x
	}
	y := randomSparse([]uint64{9, 7, 6}, 200, 32)
	cx, cy := []int{0, 1}, []int{0, 1}
	opt := Options{Algorithm: AlgSparta, Threads: 2}
	before := x.Clone()

	xo, info, err := InContractionOrder(x, cx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if xo == x || info.Stats.Sorted {
		t.Fatalf("leading contract modes should need a reorder: %+v", info)
	}
	if !x.Equal(before) {
		t.Fatal("InContractionOrder changed its argument")
	}
	for m := range x.Inds {
		if xo.Dims[m] != x.Dims[m] || &xo.Inds[m][0] == &x.Inds[m][0] {
			t.Fatalf("mode %d: result must keep x's mode order in columns of its own", m)
		}
	}
	view := xo.SortableView()
	if err := view.Permute([]int{2, 3, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !view.IsSorted() {
		t.Fatal("result is not sorted under (free modes, contract modes)")
	}
	for i := 1; i < view.NNZ(); i++ {
		if view.Compare(i-1, i) == 0 && view.Vals[i-1] > view.Vals[i] {
			t.Fatalf("rows %d,%d: equal coordinates from x's rows %v, %v are out of their original order",
				i-1, i, view.Vals[i-1], view.Vals[i])
		}
	}

	again, info2, err := InContractionOrder(xo, cx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != xo || !info2.Stats.Sorted {
		t.Fatalf("a tensor already in order must come back itself: %+v", info2)
	}

	z, rep, err := Contract(x, y, cx, cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	zo, repo, err := Contract(xo, y, cx, cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.XSort.Stats.Sorted || !repo.XSort.Stats.Sorted {
		t.Fatalf("stage ① should sort x (%+v) and find xo sorted (%+v)", rep.XSort.Stats, repo.XSort.Stats)
	}
	if !z.Equal(zo) {
		t.Fatal("contracting the reordered tensor changed the output")
	}

	// The streamed tier permutes with the same rule, so it finds the kept
	// order too: its windows concatenate to xo's rows exactly.
	xs, err := NewTensorStream(xo, cx, 64, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for {
		win, err := xs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if win == nil {
			break
		}
		for i := 0; i < win.NNZ(); i, at = i+1, at+1 {
			if win.Vals[i] != view.Vals[at] {
				t.Fatalf("streamed row %d carries %v, kept order has %v", at, win.Vals[i], view.Vals[at])
			}
		}
	}
	if at != xo.NNZ() {
		t.Fatalf("stream yielded %d rows of %d", at, xo.NNZ())
	}

	if _, _, err := InContractionOrder(x, []int{4}, 1); err == nil {
		t.Fatal("out-of-range contract mode accepted")
	}
	if got, _, err := InContractionOrder(coo.MustNew([]uint64{3, 3}, 0), []int{0}, 1); err != nil || got.NNZ() != 0 {
		t.Fatalf("empty tensor: %v, %v", got, err)
	}
}
