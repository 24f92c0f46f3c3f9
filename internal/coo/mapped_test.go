package coo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// saveV2 writes ten to a temp .sptn file and returns the path.
func saveV2(t *testing.T, ten *Tensor) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.sptn")
	if err := ten.SaveBinV2(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func sortedRandom(t *testing.T, dims []uint64, nnz int, seed int64) *Tensor {
	t.Helper()
	ten := randomTensor(t, dims, nnz, seed)
	ten.Sort(1)
	ten.Dedup()
	return ten
}

func TestOpenMappedZeroCopy(t *testing.T) {
	ten := sortedRandom(t, []uint64{30, 8, 5}, 600, 21)
	path := saveV2(t, ten)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && hostLittleEndian() && !m.ZeroCopy() {
		t.Error("v2 file on a little-endian unix host should map zero-copy")
	}
	if !m.Sorted() {
		t.Error("sorted file reported unsorted")
	}
	if m.NNZ() != ten.NNZ() || m.Order() != ten.Order() {
		t.Fatalf("shape mismatch: nnz %d order %d", m.NNZ(), m.Order())
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("mapped view differs from the written tensor")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Bytes() == 0 {
		t.Error("Bytes() = 0 on a non-empty mapping")
	}
}

func TestOpenMappedSurvivesUnlink(t *testing.T) {
	ten := sortedRandom(t, []uint64{12, 7}, 200, 22)
	path := saveV2(t, ten)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// The mapping (or heap copy) must stay readable after the name is gone.
	sum := 0.0
	for _, v := range m.Tensor().Vals {
		sum += v
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("view invalid after unlink")
	}
}

func TestOpenMappedV1HeapFallback(t *testing.T) {
	ten := sortedRandom(t, []uint64{9, 6}, 120, 23)
	path := filepath.Join(t.TempDir(), "x.bin")
	if err := ten.SaveBin(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.ZeroCopy() {
		t.Error("v1 files have no alignment guarantee and must heap-load")
	}
	if !m.Sorted() {
		t.Error("fallback lost the sort property")
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("heap fallback differs from the written tensor")
	}
	// The fallback streams like a mapping: the whole tensor and the cap.
	ws, err := m.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	if ws.T != m.Tensor() || ws.WindowNNZ != 0 {
		t.Fatalf("stream of the heap fallback is %p cap %d, want the tensor %p cap 0", ws.T, ws.WindowNNZ, m.Tensor())
	}
}

func TestMappedClose(t *testing.T) {
	ten := sortedRandom(t, []uint64{8, 4}, 50, 24)
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.ZeroCopy() {
		t.Error("ZeroCopy true after Close")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMappedStreamWindows: streaming a sorted file hands core.ContractStream
// the mapped tensor itself, no copy of a row, and the window cap unchanged;
// PreparedX.windows cuts the windows from there (core's
// TestPreparedXWindowsGroupLikeAFile, TestContractStreamMappedFile).
func TestMappedStreamWindows(t *testing.T) {
	ten := sortedRandom(t, []uint64{2048, 16, 8}, 20000, 25)
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, cap := range []int{0, 100, 1 << 13, 1 << 24} {
		ws, err := m.Stream(cap)
		if err != nil {
			t.Fatal(err)
		}
		if ws.T != m.Tensor() || ws.WindowNNZ != cap {
			t.Fatalf("cap %d: stream holds %p cap %d, want the mapped tensor %p", cap, ws.T, ws.WindowNNZ, m.Tensor())
		}
		if !ws.T.Equal(ten) {
			t.Fatalf("cap %d: streamed tensor differs from the written one", cap)
		}
	}
}

func TestMappedUnsortedCannotStream(t *testing.T) {
	ten := MustNew([]uint64{5, 5}, 0)
	ten.Append([]uint32{4, 0}, 1)
	ten.Append([]uint32{0, 1}, 2)
	m, err := OpenMapped(saveV2(t, ten))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Sorted() {
		t.Fatal("unsorted file reported sorted")
	}
	if _, err := m.Stream(64); err == nil {
		t.Fatal("Stream on an unsorted file must error")
	}
}

// TestSortedFlagOnUnsortedRowsFailsEveryOpen: a v2 file whose sorted flag is
// set on rows in descending order (the file TestContractStreamMappedFile in
// package core builds) is refused with the same flags FormatError by the
// mapped view, by LoadBin, and by the heap fallback OpenMapped takes for a
// v1 file or a failed mapping — never opened with Sorted() true on one path
// and refused on another.
func TestSortedFlagOnUnsortedRowsFailsEveryOpen(t *testing.T) {
	ten := sortedRandom(t, []uint64{40, 6, 5}, 500, 27)
	reversed, idx := MustNew(ten.Dims, ten.NNZ()), make([]uint32, ten.Order())
	for i := ten.NNZ() - 1; i >= 0; i-- {
		ten.Index(i, idx)
		reversed.Append(idx, ten.Vals[i])
	}
	var buf bytes.Buffer
	if err := reversed.WriteBinV2(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[12] |= binFlagSorted
	path := filepath.Join(t.TempDir(), "flagged.sptn")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, open := range []struct {
		name string
		fn   func(string) (any, error)
	}{
		{"OpenMapped", func(p string) (any, error) { return OpenMapped(p) }},
		{"LoadBin", func(p string) (any, error) { return LoadBin(p) }},
		{"heap fallback", func(p string) (any, error) { return openHeap(p) }},
	} {
		_, err := open.fn(path)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != "flags" {
			t.Fatalf("%s: %v, want a flags FormatError", open.name, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Errorf("the open paths disagree:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestMappedSkipsWindowIndex: files written before the window index was
// dropped carry one after the dims. Readers skip it unread, whatever it
// says — here a boundary that splits a mode-0 group, which the index's old
// open-time check refused — and the tensor maps and loads as written.
func TestMappedSkipsWindowIndex(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binMagic)
	for _, v := range []uint32{binVersion2, 2, binFlagSorted} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{4, 2} { // nnz, nwin
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{4, 3} { // dims
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range []uint64{0, 1} { // boundary 1 splits the i=0 group
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, col := range [][]uint32{{0, 0, 1, 2}, {0, 1, 0, 0}} {
		binary.Write(&buf, binary.LittleEndian, col)
	}
	binary.Write(&buf, binary.LittleEndian, []float64{1, 2, 3, 4})
	want := MustNew([]uint64{4, 3}, 4)
	for i, c := range [][2]uint32{{0, 0}, {0, 1}, {1, 0}, {2, 0}} {
		want.Append(c[:], float64(i+1))
	}
	path := filepath.Join(t.TempDir(), "indexed.sptn")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Sorted() || !m.Tensor().Equal(want) {
		t.Fatalf("mapped file with a window index: sorted %v, tensor %v", m.Sorted(), m.Tensor())
	}
	if ws, err := m.Stream(1); err != nil || ws.T != m.Tensor() {
		t.Fatalf("stream of a file with a window index: %v", err)
	}
	loaded, err := LoadBin(path)
	if err != nil || !loaded.Equal(want) {
		t.Fatalf("LoadBin of a file with a window index: %v", err)
	}
}

// splitAtMode0 cuts ten into runs at mode-0 boundaries so each run is a
// valid disjoint, ascending spool input.
func splitAtMode0(ten *Tensor, target int) []*Tensor {
	b, lead := []int{0}, ten.Inds[0]
	for i := 1; i < ten.NNZ(); i++ {
		if lead[i] != lead[i-1] && i-b[len(b)-1] >= target {
			b = append(b, i)
		}
	}
	b = append(b, ten.NNZ())
	runs := make([]*Tensor, 0, len(b)-1)
	for i := 1; i < len(b); i++ {
		lo, hi := b[i-1], b[i]
		r := &Tensor{Dims: ten.Dims, Inds: make([][]uint32, ten.Order()), Vals: ten.Vals[lo:hi]}
		for m := range ten.Inds {
			r.Inds[m] = ten.Inds[m][lo:hi]
		}
		runs = append(runs, r)
	}
	return runs
}

func TestRunSpoolRoundTrip(t *testing.T) {
	ten := sortedRandom(t, []uint64{50, 6, 4}, 2000, 26)
	runs := splitAtMode0(ten, 150)
	if len(runs) < 3 {
		t.Fatalf("want several runs, got %d", len(runs))
	}
	sp, err := NewRunSpool(t.TempDir(), ten.Dims)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Append(MustNew(ten.Dims, 0)); err != nil {
		t.Fatalf("empty run should be a no-op: %v", err)
	}
	for _, r := range runs {
		if err := sp.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if sp.NNZ() != ten.NNZ() || sp.Runs() != len(runs) {
		t.Fatalf("spool counts nnz=%d runs=%d, want %d/%d", sp.NNZ(), sp.Runs(), ten.NNZ(), len(runs))
	}
	m, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Sorted() {
		t.Error("materialized spool must be sorted")
	}
	if !m.Tensor().Equal(ten) {
		t.Fatal("materialized tensor differs from the spooled runs")
	}
	// The spool is consumed; a second Materialize must refuse.
	if _, err := sp.Materialize(); err == nil {
		t.Fatal("Materialize after Materialize should error")
	}
}

// TestRunSpoolRunsSplitAMode0Index: runs cut anywhere between two rows —
// streaming a prepared X ends a window at any sub-tensor boundary,
// mode 0 or not — still materialize into the sorted tensor.
func TestRunSpoolRunsSplitAMode0Index(t *testing.T) {
	ten := sortedRandom(t, []uint64{50, 6, 4}, 2000, 27)
	sp, err := NewRunSpool(t.TempDir(), ten.Dims)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for lo := 0; lo < ten.NNZ(); lo += 37 {
		hi := min(lo+37, ten.NNZ())
		r := &Tensor{Dims: ten.Dims, Inds: make([][]uint32, ten.Order()), Vals: ten.Vals[lo:hi]}
		for m := range ten.Inds {
			r.Inds[m] = ten.Inds[m][lo:hi]
		}
		if err := sp.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	m, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Sorted() || !m.Tensor().Equal(ten) {
		t.Fatal("materialized tensor differs from the spooled runs, or lost the sorted flag")
	}
}

func TestRunSpoolEmpty(t *testing.T) {
	sp, err := NewRunSpool(t.TempDir(), []uint64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.NNZ() != 0 {
		t.Fatalf("empty spool materialized %d non-zeros", m.NNZ())
	}
}

func TestRunSpoolRejectsDisorder(t *testing.T) {
	dims := []uint64{8, 8}
	sp, err := NewRunSpool(t.TempDir(), dims)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	a := MustNew(dims, 0)
	a.Append([]uint32{3, 0}, 1)
	if err := sp.Append(a); err != nil {
		t.Fatal(err)
	}
	// Overlapping (equal boundary coordinate) run must be refused.
	b := MustNew(dims, 0)
	b.Append([]uint32{3, 0}, 2)
	if err := sp.Append(b); err == nil {
		t.Fatal("overlapping run accepted")
	}
	// Wrong order too.
	c := MustNew([]uint64{8, 8, 8}, 0)
	c.Append([]uint32{4, 0, 0}, 3)
	if err := sp.Append(c); err == nil {
		t.Fatal("wrong-order run accepted")
	}
}

func TestMergeRunsConcat(t *testing.T) {
	ten := sortedRandom(t, []uint64{40, 5}, 900, 27)
	runs := splitAtMode0(ten, 100)
	// nil and empty runs are skipped.
	withJunk := append([]*Tensor{nil, MustNew(ten.Dims, 0)}, runs...)
	z, err := MergeRuns(ten.Dims, withJunk)
	if err != nil {
		t.Fatal(err)
	}
	if !z.Equal(ten) {
		t.Fatal("disjoint-run merge differs from the source tensor")
	}
	// Single live run: storage adopted as-is.
	z1, err := MergeRuns(ten.Dims, []*Tensor{nil, ten})
	if err != nil {
		t.Fatal(err)
	}
	if !z1.Equal(ten) {
		t.Fatal("single-run merge mismatch")
	}
	// No runs at all: a valid empty tensor.
	z0, err := MergeRuns(ten.Dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if z0.NNZ() != 0 {
		t.Fatalf("empty merge produced %d non-zeros", z0.NNZ())
	}
	// Order mismatch is an error.
	if _, err := MergeRuns([]uint64{4}, []*Tensor{ten}); err == nil {
		t.Fatal("order mismatch accepted")
	}
}

func TestMergeRunsOverlapping(t *testing.T) {
	dims := []uint64{4, 4}
	mk := func(coords [][2]uint32, vals []float64) *Tensor {
		r := MustNew(dims, len(vals))
		for i, c := range coords {
			r.Append([]uint32{c[0], c[1]}, vals[i])
		}
		return r
	}
	a := mk([][2]uint32{{0, 0}, {1, 0}, {3, 3}}, []float64{1, 2, 5})
	b := mk([][2]uint32{{0, 0}, {2, 1}}, []float64{3, 4})
	z, err := MergeRuns(dims, []*Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := mk([][2]uint32{{0, 0}, {1, 0}, {2, 1}, {3, 3}}, []float64{4, 2, 4, 5})
	if !z.Equal(want) {
		t.Fatalf("overlapping merge = %v, want %v", z, want)
	}
}
