package coo

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary tensor formats (the artifact's workflow converts .tns to a binary
// format via SPLATT for fast loading; these are our equivalents).
//
// Version 1 (heap-load only):
//
//	magic   "SPTN"            4 bytes
//	version uint32            1
//	order   uint32
//	dims    order × uint64
//	nnz     uint64
//	inds    order × nnz × uint32   (mode-major, matching Tensor.Inds)
//	vals    nnz × float64
//
// Version 2 is the mmap-ready layout: every section starts on an 8-byte
// boundary so a mapped file can be viewed in place as []uint32/[]uint64/
// []float64 slices without copying. A file whose rows are sorted carries the
// sorted flag; with its modes already in contraction order it is a prepared
// X as it stands (core.PrepareX indexes it without moving a row).
//
//	off 0   magic   "SPTN"
//	off 4   version uint32    2
//	off 8   order   uint32
//	off 12  flags   uint32    bit 0: sorted lexicographically over the stored mode order
//	off 16  nnz     uint64
//	off 24  nwin    uint64    written as 0; readers skip nwin × uint64 after dims
//	off 32  dims    order × uint64
//	...     (nwin × uint64: a window index older writers stored, never read)
//	...     inds    per mode: nnz × uint32, zero-padded to an 8-byte multiple
//	...     vals    nnz × float64
//
// All integers are little-endian.

const (
	binMagic    = "SPTN"
	binVersion  = 1
	binVersion2 = 2

	// binFlagSorted marks a v2 file whose non-zeros are in lexicographic
	// order.
	binFlagSorted = 1

	// maxBinNNZ refuses absurd allocations from corrupt headers.
	maxBinNNZ = 1 << 33
)

// FormatError is the typed error every binary-format validation failure
// returns: corrupt or hostile headers produce one of these, never a panic
// or an unbounded allocation.
type FormatError struct {
	Section string // which part of the file failed ("magic", "header", "mode 2 indices", ...)
	Msg     string
}

func (e *FormatError) Error() string {
	return "coo: bad binary tensor (" + e.Section + "): " + e.Msg
}

// pad8 rounds n up to a multiple of 8.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// WriteBin writes the tensor in the v1 binary format.
func (t *Tensor) WriteBin(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := []interface{}{
		uint32(binVersion),
		uint32(t.Order()),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, t.Dims); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(t.NNZ())); err != nil {
		return err
	}
	for m := range t.Inds {
		if err := binary.Write(bw, binary.LittleEndian, t.Inds[m]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, t.Vals); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinV2 writes the tensor in the mmap-ready v2 binary format. A sorted
// tensor's file carries the sorted flag; unsorted tensors are still valid v2
// files (zero-copy loadable) but Mapped.Stream refuses them.
func (t *Tensor) WriteBinV2(w io.Writer) error {
	n := uint64(t.NNZ())
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	var flags uint32
	if t.IsSorted() {
		flags |= binFlagSorted
	}
	for _, v := range []uint32{binVersion2, uint32(t.Order()), flags} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, v := range [][]uint64{{n, 0}, t.Dims} { // nnz, nwin; dims
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var zero8 [8]byte
	pad := pad8(4*n) - 4*n
	for m := range t.Inds {
		if err := binary.Write(bw, binary.LittleEndian, t.Inds[m]); err != nil {
			return err
		}
		if pad > 0 {
			if _, err := bw.Write(zero8[:pad]); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, t.Vals); err != nil {
		return err
	}
	return bw.Flush()
}

// binHeader is the parsed, validated header of either binary version.
type binHeader struct {
	version uint32
	order   uint32
	flags   uint32
	nnz     uint64
	nwin    uint64
	dims    []uint64
}

// payloadBytes returns the byte size of everything after the dims and the
// skipped window index (index columns + padding + values). Overflow-safe
// under the maxBinNNZ/order<=64 bounds already enforced.
func (h *binHeader) payloadBytes() uint64 {
	per := 4 * h.nnz
	if h.version >= binVersion2 {
		per = pad8(per)
	}
	return uint64(h.order)*per + 8*h.nnz
}

// readHeader parses and validates a binary header from br. limit is the
// total file size when known (LoadBin), or negative for plain readers; a
// known size lets hostile nnz/order claims be rejected before any
// payload-sized work happens.
func readHeader(br io.Reader, limit int64) (*binHeader, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, &FormatError{Section: "magic", Msg: err.Error()}
	}
	if string(magic[:]) != binMagic {
		return nil, &FormatError{Section: "magic", Msg: fmt.Sprintf("got %q, want %q", magic[:], binMagic)}
	}
	h := &binHeader{}
	if err := readU32(br, &h.version, "version"); err != nil {
		return nil, err
	}
	if h.version != binVersion && h.version != binVersion2 {
		return nil, &FormatError{Section: "version", Msg: fmt.Sprintf("unsupported version %d", h.version)}
	}
	if err := readU32(br, &h.order, "order"); err != nil {
		return nil, err
	}
	if h.order == 0 || h.order > 64 {
		return nil, &FormatError{Section: "order", Msg: fmt.Sprintf("implausible order %d", h.order)}
	}
	if h.version == binVersion2 {
		if err := readU32(br, &h.flags, "flags"); err != nil {
			return nil, err
		}
		if h.flags&^uint32(binFlagSorted) != 0 {
			return nil, &FormatError{Section: "flags", Msg: fmt.Sprintf("unknown flag bits %#x", h.flags)}
		}
		if err := readU64(br, &h.nnz, "nnz"); err != nil {
			return nil, err
		}
		if err := readU64(br, &h.nwin, "nwin"); err != nil {
			return nil, err
		}
		if h.nnz > maxBinNNZ {
			return nil, &FormatError{Section: "nnz", Msg: fmt.Sprintf("implausible nnz %d", h.nnz)}
		}
		if h.nwin > h.nnz {
			return nil, &FormatError{Section: "nwin", Msg: fmt.Sprintf("window count %d exceeds nnz %d", h.nwin, h.nnz)}
		}
	}
	var err error
	if h.dims, err = readU64s(br, uint64(h.order), "dims"); err != nil {
		return nil, err
	}
	for m, d := range h.dims {
		if d == 0 || d > 1<<32 {
			return nil, &FormatError{Section: "dims", Msg: fmt.Sprintf("mode %d has implausible size %d", m, d)}
		}
	}
	if h.version == binVersion {
		if err := readU64(br, &h.nnz, "nnz"); err != nil {
			return nil, err
		}
		if h.nnz > maxBinNNZ {
			return nil, &FormatError{Section: "nnz", Msg: fmt.Sprintf("implausible nnz %d", h.nnz)}
		}
	} else if n, err := io.CopyN(io.Discard, br, int64(8*h.nwin)); err != nil {
		// A window index older writers stored: nothing reads it any more.
		return nil, &FormatError{Section: "window index",
			Msg: fmt.Sprintf("truncated after %d of %d bytes: %v", n, 8*h.nwin, err)}
	}
	// With the true file size in hand, reject headers whose declared payload
	// cannot possibly be present — this is what keeps a 100-byte hostile file
	// claiming 2^33 non-zeros from allocating anything nnz-sized.
	if limit >= 0 {
		if p := h.payloadBytes(); p > uint64(limit) {
			return nil, &FormatError{Section: "header",
				Msg: fmt.Sprintf("declares %d payload bytes but the file has at most %d", p, limit)}
		}
	}
	return h, nil
}

// ReadBin parses either binary format, validating the header and every
// index. Corrupt input yields a *FormatError (possibly wrapped); allocation
// is bounded by the bytes actually present in r, not by header claims.
func ReadBin(r io.Reader) (*Tensor, error) {
	return readBin(r, -1)
}

func readBin(r io.Reader, limit int64) (*Tensor, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readHeader(br, limit)
	if err != nil {
		return nil, err
	}
	t, err := New(h.dims, 0)
	if err != nil {
		return nil, err
	}
	pad := int(pad8(4*h.nnz) - 4*h.nnz)
	if h.version == binVersion {
		pad = 0
	}
	var padBuf [8]byte
	for m := 0; m < int(h.order); m++ {
		section := fmt.Sprintf("mode %d indices", m)
		col, err := readU32s(br, h.nnz, section)
		if err != nil {
			return nil, err
		}
		if pad > 0 {
			if _, err := io.ReadFull(br, padBuf[:pad]); err != nil {
				return nil, &FormatError{Section: section, Msg: "truncated padding: " + err.Error()}
			}
		}
		t.Inds[m] = col
	}
	if t.Vals, err = readF64s(br, h.nnz, "values"); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := checkSortedFlag(h, t); err != nil {
		return nil, err
	}
	return t, nil
}

// checkSortedFlag refuses a file whose sorted flag is set on non-zeros that
// are not sorted. Both open paths — LoadBin and the mapped view — run it,
// so a file opens on both or on neither.
func checkSortedFlag(h *binHeader, t *Tensor) error {
	if h.flags&binFlagSorted != 0 && !t.IsSorted() {
		return &FormatError{Section: "flags", Msg: "file claims sorted order but the non-zeros are not sorted"}
	}
	return nil
}

// LoadBin reads a binary tensor file (either version). The file's true size
// bounds every header-declared allocation.
func LoadBin(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	limit := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		limit = fi.Size()
	}
	t, err := readBin(f, limit)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// SaveBin writes a v1 binary tensor file.
func (t *Tensor) SaveBin(path string) error {
	return t.saveWith(path, (*Tensor).WriteBin)
}

// SaveBinV2 writes a v2 (mmap-ready) binary tensor file.
func (t *Tensor) SaveBinV2(path string) error {
	return t.saveWith(path, (*Tensor).WriteBinV2)
}

func (t *Tensor) saveWith(path string, write func(*Tensor, io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(t, f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// The incremental section readers below grow their result as bytes actually
// arrive instead of pre-allocating the header-declared size, so a truncated
// or hostile stream errors out after reading only what exists. readColStep
// is entries per ReadFull — 256 KiB of scratch, reused across iterations.
const readColStep = 1 << 15

func readU32(br io.Reader, v *uint32, section string) error {
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return &FormatError{Section: section, Msg: err.Error()}
	}
	*v = binary.LittleEndian.Uint32(b[:])
	return nil
}

func readU64(br io.Reader, v *uint64, section string) error {
	var b [8]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return &FormatError{Section: section, Msg: err.Error()}
	}
	*v = binary.LittleEndian.Uint64(b[:])
	return nil
}

func readU32s(br io.Reader, n uint64, section string) ([]uint32, error) {
	out := make([]uint32, 0, min(n, readColStep))
	buf := make([]byte, 4*min(n, readColStep))
	var read uint64
	for read < n {
		k := min(n-read, readColStep)
		b := buf[:4*k]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, &FormatError{Section: section,
				Msg: fmt.Sprintf("truncated after %d of %d entries: %v", read, n, err)}
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
		}
		read += k
	}
	return out, nil
}

func readU64s(br io.Reader, n uint64, section string) ([]uint64, error) {
	out := make([]uint64, 0, min(n, readColStep))
	buf := make([]byte, 8*min(n, readColStep))
	var read uint64
	for read < n {
		k := min(n-read, readColStep)
		b := buf[:8*k]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, &FormatError{Section: section,
				Msg: fmt.Sprintf("truncated after %d of %d entries: %v", read, n, err)}
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, binary.LittleEndian.Uint64(b[8*i:]))
		}
		read += k
	}
	return out, nil
}

func readF64s(br io.Reader, n uint64, section string) ([]float64, error) {
	out := make([]float64, 0, min(n, readColStep))
	buf := make([]byte, 8*min(n, readColStep))
	var read uint64
	for read < n {
		k := min(n-read, readColStep)
		b := buf[:8*k]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, &FormatError{Section: section,
				Msg: fmt.Sprintf("truncated after %d of %d entries: %v", read, n, err)}
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
		}
		read += k
	}
	return out, nil
}
