package coo

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func randomTensor(t *testing.T, dims []uint64, nnz int, seed int64) *Tensor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ten := MustNew(dims, nnz)
	idx := make([]uint32, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		ten.Append(idx, rng.NormFloat64())
	}
	return ten
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("no modes should fail")
	}
	if _, err := New([]uint64{3, 0}, 0); err == nil {
		t.Error("zero mode should fail")
	}
	if _, err := New([]uint64{1 << 40}, 0); err == nil {
		t.Error("mode exceeding uint32 range should fail")
	}
}

func TestAppendAndValidate(t *testing.T) {
	ten := MustNew([]uint64{4, 5}, 0)
	ten.Append([]uint32{1, 2}, 3.5)
	ten.Append([]uint32{3, 4}, -1)
	if ten.NNZ() != 2 {
		t.Fatalf("nnz = %d", ten.NNZ())
	}
	if err := ten.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a column length.
	ten.Inds[1] = ten.Inds[1][:1]
	if err := ten.Validate(); err == nil {
		t.Fatal("expected validation failure for ragged columns")
	}
}

func TestValidateOutOfRange(t *testing.T) {
	ten := MustNew([]uint64{4, 5}, 0)
	ten.Inds[0] = append(ten.Inds[0], 4) // out of range
	ten.Inds[1] = append(ten.Inds[1], 0)
	ten.Vals = append(ten.Vals, 1)
	if err := ten.Validate(); err == nil {
		t.Fatal("expected out-of-range validation error")
	}
}

func TestAppendPanics(t *testing.T) {
	ten := MustNew([]uint64{2, 2}, 0)
	for _, bad := range [][]uint32{{0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) should panic", bad)
				}
			}()
			ten.Append(bad, 1)
		}()
	}
}

func TestPermute(t *testing.T) {
	ten := MustNew([]uint64{2, 3, 4}, 0)
	ten.Append([]uint32{1, 2, 3}, 7)
	if err := ten.Permute([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ten.Dims, []uint64{4, 2, 3}) {
		t.Fatalf("dims after permute: %v", ten.Dims)
	}
	got := []uint32{ten.Inds[0][0], ten.Inds[1][0], ten.Inds[2][0]}
	if !reflect.DeepEqual(got, []uint32{3, 1, 2}) {
		t.Fatalf("indices after permute: %v", got)
	}
	// Round-trip back.
	if err := ten.Permute([]int{1, 2, 0}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ten.Dims, []uint64{2, 3, 4}) {
		t.Fatalf("dims after round trip: %v", ten.Dims)
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	ten := MustNew([]uint64{2, 3}, 0)
	for _, bad := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		if err := ten.Permute(bad); err == nil {
			t.Errorf("Permute(%v) should fail", bad)
		}
	}
}

func checkSorted(t *testing.T, ten *Tensor) {
	t.Helper()
	if !ten.IsSorted() {
		t.Fatal("tensor not sorted")
	}
}

// multiset fingerprint of (coords, value) pairs for permutation checking:
// every coordinate and the value's bits, exactly.
func fingerprint(ten *Tensor) []string {
	out := make([]string, ten.NNZ())
	for i := 0; i < ten.NNZ(); i++ {
		var b strings.Builder
		for m := range ten.Inds {
			fmt.Fprintf(&b, "%d|", ten.Inds[m][i])
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(ten.Vals[i]))
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func TestSortSmallAndParallel(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, nnz := range []int{0, 1, 2, 15, 16, 17, 1000, 5000} {
			ten := randomTensor(t, []uint64{17, 13, 11}, nnz, int64(nnz)+100)
			before := fingerprint(ten)
			ten.Sort(threads)
			checkSorted(t, ten)
			if !reflect.DeepEqual(before, fingerprint(ten)) {
				t.Fatalf("threads=%d nnz=%d: sort changed the multiset", threads, nnz)
			}
			if err := ten.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSortWideBox(t *testing.T) {
	// Dims whose product overflows uint64 sort one LN key word at a time.
	dims := []uint64{1 << 31, 1 << 31, 1 << 31}
	ten := randomTensor(t, dims, 3000, 9)
	before := fingerprint(ten)
	want := stableSorted(ten)
	ten.Sort(2)
	checkSorted(t, ten)
	if !reflect.DeepEqual(before, fingerprint(ten)) {
		t.Fatal("wide-box sort changed the multiset")
	}
	if !want.Equal(ten) {
		t.Fatal("wide-box sort differs from the stable oracle")
	}
}

func TestSortIdempotent(t *testing.T) {
	ten := randomTensor(t, []uint64{9, 9, 9}, 2000, 3)
	ten.Sort(2)
	snap := ten.Clone()
	ten.Sort(2)
	if !ten.Equal(snap) {
		t.Fatal("second sort changed a sorted tensor")
	}
}

func TestSortAdversarial(t *testing.T) {
	// All-equal keys, already-sorted, and reverse-sorted inputs.
	dims := []uint64{4, 4}
	eq := MustNew(dims, 0)
	for i := 0; i < 500; i++ {
		eq.Append([]uint32{1, 2}, float64(i))
	}
	eq.Sort(2)
	checkSorted(t, eq)
	if eq.NNZ() != 500 {
		t.Fatal("lost elements")
	}

	asc := MustNew([]uint64{1 << 20}, 0)
	for i := 0; i < 3000; i++ {
		asc.Append([]uint32{uint32(i)}, 1)
	}
	asc.Sort(2)
	checkSorted(t, asc)

	desc := MustNew([]uint64{1 << 20}, 0)
	for i := 2999; i >= 0; i-- {
		desc.Append([]uint32{uint32(i)}, 1)
	}
	desc.Sort(2)
	checkSorted(t, desc)
	for i := 0; i < 3000; i++ {
		if desc.Inds[0][i] != uint32(i) {
			t.Fatalf("desc[%d] = %d", i, desc.Inds[0][i])
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(seed int64, raw uint16) bool {
		nnz := int(raw % 2048)
		ten := MustNew([]uint64{8, 8, 8}, nnz)
		rng := rand.New(rand.NewSource(seed))
		idx := make([]uint32, 3)
		for i := 0; i < nnz; i++ {
			for m := range idx {
				idx[m] = uint32(rng.Intn(8))
			}
			ten.Append(idx, rng.Float64())
		}
		before := fingerprint(ten)
		ten.Sort(3)
		return ten.IsSorted() && reflect.DeepEqual(before, fingerprint(ten))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubPtr(t *testing.T) {
	ten := MustNew([]uint64{3, 3, 3}, 0)
	rows := [][]uint32{
		{0, 0, 1}, {0, 0, 2}, {0, 1, 0}, {1, 2, 2}, {2, 0, 0}, {2, 0, 1}, {2, 2, 2},
	}
	for _, r := range rows {
		ten.Append(r, 1)
	}
	ptr, err := ten.SubPtr(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ptr, []int{0, 3, 4, 7}) {
		t.Fatalf("SubPtr(1) = %v", ptr)
	}
	ptr2, _ := ten.SubPtr(2)
	if !reflect.DeepEqual(ptr2, []int{0, 2, 3, 4, 6, 7}) {
		t.Fatalf("SubPtr(2) = %v", ptr2)
	}
	ptr0, _ := ten.SubPtr(0)
	if !reflect.DeepEqual(ptr0, []int{0, 7}) {
		t.Fatalf("SubPtr(0) = %v", ptr0)
	}
	if MaxSubNNZ(ptr) != 3 {
		t.Fatalf("MaxSubNNZ = %d", MaxSubNNZ(ptr))
	}
	if _, err := ten.SubPtr(4); err == nil {
		t.Fatal("SubPtr beyond order should fail")
	}
}

func TestSubPtrEmpty(t *testing.T) {
	ten := MustNew([]uint64{3}, 0)
	ptr, err := ten.SubPtr(1)
	if err != nil || !reflect.DeepEqual(ptr, []int{0}) {
		t.Fatalf("empty SubPtr = %v, %v", ptr, err)
	}
}

func TestDedup(t *testing.T) {
	ten := MustNew([]uint64{4, 4}, 0)
	ten.Append([]uint32{0, 1}, 1)
	ten.Append([]uint32{0, 1}, 2)
	ten.Append([]uint32{0, 2}, 5)
	ten.Append([]uint32{1, 0}, -5)
	ten.Append([]uint32{1, 0}, 5)
	if merged := ten.Dedup(); merged != 2 {
		t.Fatalf("merged = %d", merged)
	}
	if ten.NNZ() != 3 {
		t.Fatalf("nnz after dedup = %d", ten.NNZ())
	}
	if ten.Vals[0] != 3 || ten.Vals[1] != 5 || ten.Vals[2] != 0 {
		t.Fatalf("vals after dedup = %v", ten.Vals)
	}
}

func TestTNSRoundTrip(t *testing.T) {
	ten := randomTensor(t, []uint64{6, 7, 8, 9}, 500, 11)
	ten.Sort(1)
	var buf bytes.Buffer
	if err := ten.WriteTNS(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTNS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ten.Equal(back) {
		t.Fatal("TNS round trip mismatch")
	}
}

func TestTNSComments(t *testing.T) {
	in := "# a comment\n2\n\n3 4\n1 1 2.5\n# middle\n3 4 -1\n"
	ten, err := ReadTNS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ten.NNZ() != 2 || ten.Dims[1] != 4 {
		t.Fatalf("parsed %v", ten)
	}
	if ten.Inds[0][1] != 2 || ten.Inds[1][1] != 3 {
		t.Fatal("1-based conversion broken")
	}
}

func TestTNSMalformed(t *testing.T) {
	cases := []string{
		"",                      // empty
		"x\n",                   // bad order
		"2\n3\n",                // dim count mismatch
		"2\n3 4\n1 1\n",         // missing value
		"2\n3 4\n0 1 1\n",       // index below 1
		"2\n3 4\n4 1 1\n",       // index above dim
		"2\n3 4\n1 1 notanum\n", // bad value
		"2\n3 a\n1 1 1\n",       // bad dim
		"2\n3 4\n1 1 1 extra\n", // extra field
		"-1\n3 4\n",             // negative order
		"2\n3 4\n1.5 1 1\n",     // fractional index
	}
	for _, c := range cases {
		if _, err := ReadTNS(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

func TestEqualAndClone(t *testing.T) {
	a := randomTensor(t, []uint64{5, 5}, 50, 1)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Vals[0] += 1
	if a.Equal(b) {
		t.Fatal("value change undetected")
	}
	c := a.Clone()
	c.Inds[1][3] = (c.Inds[1][3] + 1) % 5
	if a.Equal(c) {
		t.Fatal("index change undetected")
	}
}

func TestScaleAndBytes(t *testing.T) {
	a := randomTensor(t, []uint64{5, 5}, 10, 2)
	want := a.Vals[3] * 2
	a.Scale(2)
	if a.Vals[3] != want {
		t.Fatal("scale broken")
	}
	if a.Bytes() != uint64(10*(4*2+8)) {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestStringer(t *testing.T) {
	a := MustNew([]uint64{2, 3}, 0)
	if got := a.String(); got != "COO[2x3] nnz=0" {
		t.Fatalf("String = %q", got)
	}
}

// stableSorted returns a copy of ten ordered by the stdlib's stable sort over
// full index tuples: the oracle for (coordinate, original position) order.
func stableSorted(ten *Tensor) *Tensor {
	idx := make([]int, ten.NNZ())
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return ten.Compare(a, b) })
	out := MustNew(ten.Dims, ten.NNZ())
	row := make([]uint32, ten.Order())
	for _, i := range idx {
		for m := range row {
			row[m] = ten.Inds[m][i]
		}
		out.Append(row, ten.Vals[i])
	}
	return out
}

// TestSortWithEnginesAgree: the radix engine and the stdlib's stable tuple
// sort must produce byte-identical tensors — same coordinates AND same value
// order at duplicate coordinates (both orders are (key, original position)).
// Dims include an LN boundary case: a product one step under 2^64 keeps the
// radix on one key word with every key byte significant. The last two boxes
// are too wide for one word: 2^64 takes two, five modes of 2^32 take five,
// and at 20 000 rows every word's pass runs the MSD path.
func TestSortWithEnginesAgree(t *testing.T) {
	shapes := [][]uint64{
		{17, 13, 11},
		{1 << 20, 3},
		{1 << 31, 1 << 31, 3}, // card = 3*2^62, just under 2^64: top byte significant
		{1 << 32, 1 << 32},
		{1 << 32, 1 << 32, 1 << 32, 1 << 32, 1 << 32},
	}
	for si, dims := range shapes {
		for _, nnz := range []int{0, 1, 500, 20000} {
			for _, threads := range []int{1, 4} {
				r := randomTensor(t, dims, nnz, int64(70+si))
				want := stableSorted(r)
				r.SortWith(threads, SortAuto)
				if !want.Equal(r) {
					t.Fatalf("shape %d nnz=%d threads=%d: engines disagree", si, nnz, threads)
				}
				checkSorted(t, r)
			}
		}
	}
}

// TestSortWithDuplicateCoordinates: duplicates are the stability stress —
// the sort must keep the original value order at equal keys, in a box that
// fits one LN key and in boxes too wide for one (two and three key words).
func TestSortWithDuplicateCoordinates(t *testing.T) {
	for _, dims := range [][]uint64{{3, 3}, {1 << 31, 1 << 31, 1 << 31}, {1 << 32, 2, 1 << 32, 1 << 32}} {
		ten := MustNew(dims, 0)
		row := make([]uint32, len(dims))
		for i := 0; i < 4000; i++ {
			for m, d := range dims {
				// Three distinct values a mode, spread over its range.
				row[m] = uint32((uint64(i/(m*7+1)) % 3) * ((d - 1) / 2))
			}
			ten.Append(row, float64(i))
		}
		want := stableSorted(ten)
		ten.SortWith(2, SortAuto)
		if !want.Equal(ten) {
			t.Fatalf("dims %v: duplicate-coordinate value order differs from the stable oracle", dims)
		}
	}
}

// TestSortWithFallbackInfo: a box too wide for one LN key — the case a tuple
// quicksort once took — sorts stably through the radix passes of every key
// word, and an already-sorted one is recognised and keeps its columns.
func TestSortWithFallbackInfo(t *testing.T) {
	dims := []uint64{1 << 31, 1 << 31, 1 << 31}
	ten := randomTensor(t, dims, 300, 5)
	if words, lead := ten.keyWords(); len(words) != 2 || words[0].r.Order() != 2 || lead != words[1].r || lead.Order() != 1 {
		t.Fatalf("key words of %v: %+v, want modes {1, 2} then {0}", dims, words)
	}
	want := stableSorted(ten)
	info := ten.SortWith(2, SortAuto)
	if info.Stats.Sorted || info.Stats.Passes == 0 {
		t.Fatalf("unsorted wide box: %+v", info)
	}
	if !want.Equal(ten) {
		t.Fatal("wide box differs from the stable oracle")
	}
	col0, vals := &ten.Inds[0][0], &ten.Vals[0]
	if info := ten.SortWith(2, SortAuto); !info.Stats.Sorted {
		t.Fatalf("sorted wide box not detected: %+v", info)
	}
	if &ten.Inds[0][0] != col0 || &ten.Vals[0] != vals {
		t.Fatal("sorting a sorted wide box reallocated its columns")
	}
}

// TestSortSortedKeepsColumns: when the keys are already in order the radix
// path returns before the gather, so the tensor keeps its own columns (an
// already-sorted X costs one scan, not a second copy of the tensor).
func TestSortSortedKeepsColumns(t *testing.T) {
	ten := randomTensor(t, []uint64{9, 9, 9}, 2000, 3)
	ten.Sort(2)
	col0, vals := &ten.Inds[0][0], &ten.Vals[0]
	info := ten.SortWith(2, SortAuto)
	if !info.Stats.Sorted {
		t.Fatalf("sorted input not detected: %+v", info)
	}
	if &ten.Inds[0][0] != col0 || &ten.Vals[0] != vals {
		t.Fatal("sorting a sorted tensor reallocated its columns")
	}
}

// TestSortableViewNeverWritesSource: permuting and sorting the view leaves
// the source bitwise unchanged while the view shares the source's columns,
// for a box that fits one LN key and one too wide for it: the sorter gathers
// into fresh columns either way.
func TestSortableViewNeverWritesSource(t *testing.T) {
	for _, dims := range [][]uint64{{9, 8, 7}, {1 << 31, 1 << 31, 1 << 31}} {
		src := randomTensor(t, dims, 3000, 21)
		snap := src.Clone()
		v := src.SortableView()
		if &v.Vals[0] != &src.Vals[0] || &v.Inds[0][0] != &src.Inds[0][0] {
			t.Fatalf("dims %v: view does not share the source's storage", dims)
		}
		if err := v.Permute([]int{2, 0, 1}); err != nil {
			t.Fatal(err)
		}
		v.Sort(2)
		checkSorted(t, v)
		if !src.Equal(snap) {
			t.Fatalf("dims %v: sorting the view modified the source", dims)
		}
	}
}
