package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sparta"
	"sparta/internal/plan"
)

func write(t *testing.T, path string, ten *sparta.Tensor) {
	t.Helper()
	if err := save(ten, path); err != nil {
		t.Fatal(err)
	}
}

func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	x := sparta.Random([]uint64{6, 5, 4}, 50, 1)
	tns := filepath.Join(dir, "x.tns")
	bin := filepath.Join(dir, "x.bin")
	write(t, tns, x)

	if err := run([]string{"stat", tns}); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := run([]string{"describe", tns}); err != nil {
		t.Fatalf("describe: %v", err)
	}
	if err := run([]string{"describe", "-json", tns}); err != nil {
		t.Fatalf("describe -json: %v", err)
	}
	if err := run([]string{"head", "-n", "3", tns}); err != nil {
		t.Fatalf("head: %v", err)
	}
	if err := run([]string{"convert", "-o", bin, tns}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	back, err := load(bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatalf("convert lost non-zeros: %d vs %d", back.NNZ(), x.NNZ())
	}

	sorted := filepath.Join(dir, "sorted.tns")
	if err := run([]string{"sort", "-o", sorted, tns}); err != nil {
		t.Fatalf("sort: %v", err)
	}
	s, _ := load(sorted)
	if !s.IsSorted() {
		t.Fatal("sort output unsorted")
	}

	perm := filepath.Join(dir, "perm.tns")
	if err := run([]string{"permute", "-perm", "2,0,1", "-o", perm, tns}); err != nil {
		t.Fatalf("permute: %v", err)
	}
	p, _ := load(perm)
	if p.Dims[0] != 4 || p.Dims[1] != 6 || p.Dims[2] != 5 {
		t.Fatalf("permute dims = %v", p.Dims)
	}

	// diff: identical files pass, different values fail.
	if err := run([]string{"diff", tns, bin}); err != nil {
		t.Fatalf("diff identical: %v", err)
	}

	// The v2 legs the streamed tier reads: .bin (v1) -> .sptn (v2), and
	// .tns -> sorted .sptn in one step; both must hold x's non-zeros.
	sptn := filepath.Join(dir, "x.sptn")
	if err := run([]string{"convert", "-o", sptn, bin}); err != nil {
		t.Fatalf("convert to .sptn: %v", err)
	}
	sortedSptn := filepath.Join(dir, "sorted.sptn")
	if err := run([]string{"sort", "-o", sortedSptn, tns}); err != nil {
		t.Fatalf("sort to .sptn: %v", err)
	}
	for _, f := range []string{sptn, sortedSptn} {
		if v := binVersion(t, f); v != 2 {
			t.Fatalf("%s: format version %d, want 2", filepath.Base(f), v)
		}
	}
	if err := run([]string{"diff", bin, sptn}); err != nil {
		t.Fatalf("diff .bin .sptn: %v", err)
	}
	if err := run([]string{"diff", sptn, sortedSptn}); err != nil {
		t.Fatalf("diff .sptn sorted .sptn: %v", err)
	}
	if err := run([]string{"stat", sptn}); err != nil {
		t.Fatalf("stat .sptn: %v", err)
	}
	if s, err := load(sortedSptn); err != nil || !s.IsSorted() {
		t.Fatalf("sort -o .sptn: unsorted or unreadable (%v)", err)
	}
	y := x.Clone()
	y.Vals[0] += 1
	other := filepath.Join(dir, "y.tns")
	write(t, other, y)
	if err := run([]string{"diff", tns, other}); err == nil {
		t.Fatal("diff missed a value change")
	}
	if err := run([]string{"diff", "-tol", "2", tns, other}); err != nil {
		t.Fatalf("diff with tolerance: %v", err)
	}
}

// binVersion reads the format version of a binary tensor file: the
// little-endian uint32 after the 4-byte magic (coo/binio.go).
func binVersion(t *testing.T, path string) uint32 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 8 {
		t.Fatalf("%s: %d bytes, no header", path, len(b))
	}
	return binary.LittleEndian.Uint32(b[4:8])
}

func TestErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"stat", "/nonexistent.tns"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"describe"}); err == nil {
		t.Error("describe without a file accepted")
	}
	if err := run([]string{"sort", "x.tns"}); err == nil {
		t.Error("sort without -o accepted")
	}
	if err := run([]string{"permute", "-perm", "a,b", "-o", "/tmp/x.tns", "x.tns"}); err == nil {
		t.Error("bad permutation accepted")
	}
}

// TestDescribeJSON checks the -json output parses back into the planner's
// TensorStats schema with the right headline numbers.
func TestDescribeJSON(t *testing.T) {
	dir := t.TempDir()
	x := sparta.Random([]uint64{6, 5, 4}, 50, 9)
	tns := filepath.Join(dir, "x.tns")
	write(t, tns, x)

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run([]string{"describe", "-json", tns})
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("describe -json: %v", runErr)
	}
	var st plan.TensorStats
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("output is not TensorStats JSON: %v\n%s", err, out)
	}
	if st.NNZ != x.NNZ() || len(st.Modes) != x.Order() {
		t.Fatalf("stats mismatch: nnz %d modes %d", st.NNZ, len(st.Modes))
	}
	for m, ms := range st.Modes {
		if ms.Size != x.Dims[m] {
			t.Errorf("mode %d size %d, want %d", m, ms.Size, x.Dims[m])
		}
		if ms.Distinct == 0 || len(ms.HistCounts) != len(ms.HistBounds)+1 {
			t.Errorf("mode %d histogram shape off", m)
		}
	}
}
