package coo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the byte order of the SPTN format. On the (rare)
// big-endian host the zero-copy view would read garbage, so OpenMapped
// falls back to the byte-swapping heap loader there.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Mapped is a read-only tensor backed by an mmap'd v2 SPTN file (or, on
// platforms/files where zero-copy is impossible, a heap copy with the same
// interface). The index and value arrays are views straight into the page
// cache: loading is O(1), touching a window faults in only that window's
// pages, and the kernel evicts cold pages under memory pressure — which is
// exactly the file-backed residency tier the streaming driver builds on. A
// sorted file in contraction order is a prepared X as it stands:
// core.PrepareX over Tensor() moves no row and allocates only its index.
//
// The tensor view returned by Tensor() must be treated as immutable: the
// pages are PROT_READ and writes through the view fault. Close unmaps; a
// finalizer covers leaked handles.
type Mapped struct {
	t      *Tensor
	h      *mapHandle // nil on the heap-fallback path
	sorted bool
	path   string
}

// mapHandle owns one mmap region. It is what the finalizer hangs off:
// both the Mapped and every tensor view reference the handle (never the
// other way around), so there is no finalizer cycle, and the pages stay
// mapped as long as any view is reachable.
type mapHandle struct {
	data []byte
}

func (h *mapHandle) release() error {
	if h.data == nil {
		return nil
	}
	data := h.data
	h.data = nil
	return munmapFile(data)
}

// OpenMapped opens a binary tensor file as a Mapped view. v2 files on a
// little-endian unix host map zero-copy; v1 files, big-endian hosts, and
// platforms without mmap load into heap with identical behavior (ZeroCopy
// reports which happened). The file may be removed after OpenMapped
// returns — the mapping (or heap copy) stays valid.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !mmapSupported || !hostLittleEndian() || !fi.Mode().IsRegular() || fi.Size() < 32 {
		return openHeap(path)
	}
	var ver [8]byte
	if _, err := f.ReadAt(ver[:], 0); err != nil {
		return nil, &FormatError{Section: "magic", Msg: err.Error()}
	}
	if string(ver[:4]) != binMagic {
		return nil, &FormatError{Section: "magic", Msg: fmt.Sprintf("got %q, want %q", ver[:4], binMagic)}
	}
	if binary.LittleEndian.Uint32(ver[4:]) != binVersion2 {
		// v1 has no alignment guarantees; heap-load it.
		return openHeap(path)
	}
	data, err := mmapFile(f, fi.Size())
	if err != nil {
		return openHeap(path)
	}
	m, err := newMappedView(data, path)
	if err != nil {
		_ = munmapFile(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// openHeap is the portable fallback: a normal load presented through the
// Mapped interface.
func openHeap(path string) (*Mapped, error) {
	t, err := LoadBin(path)
	if err != nil {
		return nil, err
	}
	return &Mapped{t: t, path: path, sorted: t.IsSorted()}, nil
}

// newMappedView parses a v2 header out of the mapped bytes and builds the
// zero-copy tensor view. The header is validated by the same code path as
// the stream reader, then each section is checked to lie inside the mapping
// before any unsafe view is taken.
func newMappedView(data []byte, path string) (*Mapped, error) {
	h, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	if h.version != binVersion2 {
		return nil, &FormatError{Section: "version", Msg: "mapped view requires version 2"}
	}
	hdrSize := uint64(32) + 8*uint64(h.order) + 8*h.nwin
	need := hdrSize + h.payloadBytes()
	if uint64(len(data)) < need {
		return nil, &FormatError{Section: "payload",
			Msg: fmt.Sprintf("file has %d bytes but the header declares %d", len(data), need)}
	}
	t := &Tensor{
		Dims: append([]uint64(nil), h.dims...),
		Inds: make([][]uint32, h.order),
		Vals: []float64{},
	}
	off := hdrSize
	colPad := pad8(4 * h.nnz)
	for m := range t.Inds {
		t.Inds[m] = u32View(data[off:], h.nnz)
		off += colPad
	}
	t.Vals = f64View(data[off:], h.nnz)
	// Deliberately no index validation here: that would touch every page of
	// a file that may be 10x RAM at open time. Structural header checks ran
	// above; core.PrepareX checks a file-backed tensor's rows before it
	// encodes one, and Validate() runs the full check on demand.
	mp := &Mapped{t: t, path: path, sorted: h.flags&binFlagSorted != 0}
	mp.h = &mapHandle{data: data}
	t.backing = mp.h
	runtime.SetFinalizer(mp.h, (*mapHandle).release)
	return mp, nil
}

// u32View reinterprets the first 4n bytes of b as a []uint32 without
// copying. b's base is 8-aligned by the v2 layout.
func u32View(b []byte, n uint64) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

// f64View reinterprets the first 8n bytes of b as a []float64.
func f64View(b []byte, n uint64) []float64 {
	if n == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// Tensor returns the (possibly zero-copy) tensor view. Callers must not
// mutate it; the streamed driver never does.
func (m *Mapped) Tensor() *Tensor { return m.t }

// NNZ returns the non-zero count.
func (m *Mapped) NNZ() int { return m.t.NNZ() }

// Dims returns the mode sizes.
func (m *Mapped) Dims() []uint64 { return m.t.Dims }

// Order returns the mode count.
func (m *Mapped) Order() int { return m.t.Order() }

// Sorted reports whether the file's non-zeros are lexicographically sorted
// (and therefore streamable window by window).
func (m *Mapped) Sorted() bool { return m.sorted }

// ZeroCopy reports whether the view is an actual mmap (false on the heap
// fallback).
func (m *Mapped) ZeroCopy() bool { return m.h != nil && m.h.data != nil }

// Bytes returns the mapped (or heap) payload size.
func (m *Mapped) Bytes() uint64 {
	if m.h != nil && m.h.data != nil {
		return uint64(len(m.h.data))
	}
	return m.t.Bytes()
}

// Validate runs the full structural check (every index in range) — a
// sequential pass over the whole mapping.
func (m *Mapped) Validate() error { return m.t.Validate() }

// Close releases the mapping. The tensor view and every window derived from
// it are invalid afterwards. Safe to call twice; not safe concurrently with
// readers.
func (m *Mapped) Close() error {
	if m.h == nil {
		return nil
	}
	h := m.h
	m.h = nil
	m.t = nil
	runtime.SetFinalizer(h, nil)
	return h.release()
}

// Stream is a sorted mapped tensor and the window cap core.ContractStream
// walks it with.
type Stream struct {
	T         *Tensor
	WindowNNZ int
}

// Stream returns the mapped tensor with a cap of windowNNZ non-zeros per
// streamed window (windowNNZ <= 0 streams one window). The file must carry
// the sorted flag.
func (m *Mapped) Stream(windowNNZ int) (Stream, error) {
	if !m.sorted {
		return Stream{}, fmt.Errorf("coo: %s: cannot stream an unsorted tensor file", m.path)
	}
	return Stream{T: m.t, WindowNNZ: windowNNZ}, nil
}
