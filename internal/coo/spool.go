package coo

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// RunSpool spools sorted output runs to a scratch file so a larger-than-RAM
// Z never has to be heap-resident: the streaming driver appends one sorted,
// disjoint run per X window (runs must arrive in ascending coordinate
// order — Append enforces disjointness at the boundaries), and Materialize
// reassembles the runs into a v2 SPTN file and returns it as a Mapped view,
// whose pages the kernel can evict under pressure.
//
// On-disk scratch layout is run-major: per run, the mode columns then the
// values, so Materialize can gather each final mode-major section with
// sequential ReadAt sweeps. Not safe for concurrent use.
type RunSpool struct {
	dims  []uint64
	dir   string
	f     *os.File
	w     *bufio.Writer
	runs  []int    // nnz of each appended run
	last  []uint32 // final coordinate tuple of the last appended run
	first []uint32 // scratch: first tuple of the incoming run
	nnz   int
}

// NewRunSpool creates a spool for runs with the given output dims, backed
// by a scratch file in dir ("" = the default temp directory). The scratch
// file is unlinked immediately so a crashed process leaks nothing.
func NewRunSpool(dir string, dims []uint64) (*RunSpool, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("coo: RunSpool needs at least one mode")
	}
	f, err := os.CreateTemp(dir, "sptn-spool-*")
	if err != nil {
		return nil, err
	}
	// Unlink-after-open: the fd keeps the inode alive, the name is gone.
	_ = os.Remove(f.Name())
	return &RunSpool{
		dims:  append([]uint64(nil), dims...),
		dir:   dir,
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<20),
		last:  make([]uint32, len(dims)),
		first: make([]uint32, len(dims)),
	}, nil
}

// NNZ returns the total non-zeros spooled so far.
func (s *RunSpool) NNZ() int { return s.nnz }

// Runs returns how many non-empty runs were appended.
func (s *RunSpool) Runs() int { return len(s.runs) }

// Append spools one sorted run. Runs must be disjoint and ascending: the
// first coordinate of run k+1 must be strictly greater than the last
// coordinate of run k (the streaming driver's window alignment guarantees
// this; a violation means corrupted output and is reported loudly).
// Empty runs are no-ops.
func (s *RunSpool) Append(run *Tensor) error {
	n := run.NNZ()
	if n == 0 {
		return nil
	}
	if run.Order() != len(s.dims) {
		return fmt.Errorf("coo: RunSpool: run has order %d, want %d", run.Order(), len(s.dims))
	}
	run.Index(0, s.first)
	if s.nnz > 0 && !tupleLess(s.last, s.first) {
		return fmt.Errorf("coo: RunSpool: run starting at %v does not follow previous run ending at %v", s.first, s.last)
	}
	for m := range run.Inds {
		if err := writeColumn(s.w, run.Inds[m]); err != nil {
			return err
		}
	}
	if err := writeColumn(s.w, run.Vals); err != nil {
		return err
	}
	run.Index(n-1, s.last)
	s.runs = append(s.runs, n)
	s.nnz += n
	return nil
}

// writeColumn writes one non-empty column in the scratch file's
// little-endian layout. On a little-endian host that is the slice's own
// bytes — the inverse of the views Mapped hands out — which spares the
// per-run encode buffer encoding/binary allocates, clears and fills; it was
// a third of the spilled path's CPU time on output-heavy contractions.
func writeColumn[T uint32 | float64](w io.Writer, col []T) error {
	if !hostLittleEndian() {
		return binary.Write(w, binary.LittleEndian, col)
	}
	_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*int(unsafe.Sizeof(col[0]))))
	return err
}

// tupleLess compares coordinate tuples lexicographically.
func tupleLess(a, b []uint32) bool {
	for m := range a {
		if a[m] != b[m] {
			return a[m] < b[m]
		}
	}
	return false
}

// Materialize assembles the spooled runs into a sorted v2 SPTN file and
// opens it as a Mapped view. The spool and
// the materialized file are both unlinked before returning — the mapping is
// the only remaining reference, and Close (or a dropped handle) releases
// the storage. The spool is consumed: only Close may follow.
func (s *RunSpool) Materialize() (*Mapped, error) {
	if s.f == nil {
		return nil, fmt.Errorf("coo: RunSpool already closed")
	}
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	order := len(s.dims)
	out, err := os.CreateTemp(s.dir, "sptn-z-*.sptn")
	if err != nil {
		return nil, err
	}
	outPath := out.Name()
	fail := func(err error) (*Mapped, error) {
		_ = out.Close()
		_ = os.Remove(outPath)
		return nil, err
	}

	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return fail(err)
	}
	for _, v := range []uint32{binVersion2, uint32(order), binFlagSorted} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fail(err)
		}
	}
	for _, v := range [][]uint64{{uint64(s.nnz), 0}, s.dims} { // nnz, nwin; dims
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fail(err)
		}
	}

	// Run r's bytes start at sum of earlier run sizes; within a run, column
	// m starts at m*4*n and the values at order*4*n.
	runBase := make([]int64, len(s.runs)+1)
	for r, n := range s.runs {
		runBase[r+1] = runBase[r] + int64(n)*int64(4*order+8)
	}
	copyBuf := make([]byte, 1<<20)
	gather := func(sectionOff func(r int) int64, bytesOf func(n int) int64) error {
		for r, n := range s.runs {
			off := runBase[r] + sectionOff(r)
			if err := copySection(bw, s.f, off, bytesOf(n), copyBuf); err != nil {
				return err
			}
		}
		return nil
	}
	var zero8 [8]byte
	pad := pad8(4*uint64(s.nnz)) - 4*uint64(s.nnz)
	for m := 0; m < order; m++ {
		mm := m
		if err := gather(
			func(r int) int64 { return int64(mm) * 4 * int64(s.runs[r]) },
			func(n int) int64 { return 4 * int64(n) },
		); err != nil {
			return fail(err)
		}
		if pad > 0 {
			if _, err := bw.Write(zero8[:pad]); err != nil {
				return fail(err)
			}
		}
	}
	if err := gather(
		func(r int) int64 { return int64(order) * 4 * int64(s.runs[r]) },
		func(n int) int64 { return 8 * int64(n) },
	); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := out.Close(); err != nil {
		_ = os.Remove(outPath)
		return nil, err
	}
	_ = s.Close()

	m, err := OpenMapped(outPath)
	// The mapping (or heap copy) no longer needs the name.
	_ = os.Remove(outPath)
	return m, err
}

// copySection streams length bytes of src starting at off into w.
func copySection(w io.Writer, src *os.File, off, length int64, buf []byte) error {
	for length > 0 {
		k := int64(len(buf))
		if k > length {
			k = length
		}
		if _, err := src.ReadAt(buf[:k], off); err != nil {
			return err
		}
		if _, err := w.Write(buf[:k]); err != nil {
			return err
		}
		off += k
		length -= k
	}
	return nil
}

// Close releases the scratch file. Idempotent; Materialize calls it.
func (s *RunSpool) Close() error {
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return f.Close()
}
