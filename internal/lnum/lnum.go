// Package lnum implements the "large-number" (LN) representation from the
// Sparta paper (PPoPP'21, §3.3): a mixed-radix linearization that converts a
// multi-dimensional index tuple into a single uint64 so that hash-table key
// comparison is a single integer compare instead of a tuple compare.
//
// For a tuple (i0, i1, ..., ik) over mode sizes (d0, d1, ..., dk) the large
// number is (((i0*d1)+i1)*d2+i2)... — i.e. row-major linearization. The
// mapping is a bijection between the index box and [0, d0*d1*...*dk).
package lnum

import (
	"errors"
	"fmt"
	"math/bits"

	"sparta/internal/invariant"
)

// ErrOverflow is reported when the product of mode sizes does not fit in a
// uint64, which would make the LN representation ambiguous.
var ErrOverflow = errors.New("lnum: mode-size product overflows uint64")

// Radix is a precomputed mixed-radix encoder for a fixed tuple of mode sizes.
// The zero value is a valid encoder for the empty tuple (always encoding 0).
type Radix struct {
	dims    []uint64 // mode sizes
	strides []uint64 // strides[m] = product of dims[m+1:]
	card    uint64   // product of all dims (0 if any dim is 0 and len>0)
}

// NewRadix builds an encoder for the given mode sizes. It fails with
// ErrOverflow when the total cardinality exceeds uint64, and rejects
// zero-sized modes (a tensor mode always has size >= 1).
func NewRadix(dims []uint64) (*Radix, error) {
	r := &Radix{
		dims:    append([]uint64(nil), dims...),
		strides: make([]uint64, len(dims)),
		card:    1,
	}
	for m := len(dims) - 1; m >= 0; m-- {
		d := dims[m]
		if d == 0 {
			return nil, fmt.Errorf("lnum: mode %d has size 0", m)
		}
		r.strides[m] = r.card
		hi, lo := mul64(r.card, d)
		if hi != 0 {
			return nil, ErrOverflow
		}
		r.card = lo
	}
	return r, nil
}

// MustRadix is NewRadix that panics on error; for use with dims already
// validated by the caller.
func MustRadix(dims []uint64) *Radix {
	r, err := NewRadix(dims)
	if err != nil {
		panic(err)
	}
	return r
}

// Order returns the number of modes the encoder covers.
func (r *Radix) Order() int { return len(r.dims) }

// Card returns the total cardinality (product of mode sizes).
func (r *Radix) Card() uint64 { return r.card }

// Dims returns the mode sizes (shared slice; do not mutate).
func (r *Radix) Dims() []uint64 { return r.dims }

// Encode linearizes idx. idx must have exactly Order() entries, each within
// its mode size; violations panic (they indicate a caller bug, not input
// error — inputs are validated at tensor construction).
func (r *Radix) Encode(idx []uint32) uint64 {
	if len(idx) != len(r.dims) {
		panic(fmt.Sprintf("lnum: Encode arity %d, want %d", len(idx), len(r.dims)))
	}
	var ln uint64
	for m, v := range idx {
		if uint64(v) >= r.dims[m] {
			panic(fmt.Sprintf("lnum: index %d out of range for mode %d (size %d)", v, m, r.dims[m]))
		}
		// Cannot wrap: each step keeps ln < strides[m-1] <= card, and
		// NewRadix proved card fits in a uint64 with a 128-bit multiply.
		//lint:ignore lnoverflow ln stays below Card, whose uint64 fit NewRadix checked with bits.Mul64
		ln = ln*r.dims[m] + uint64(v)
	}
	return ln
}

// EncodeStrided linearizes a subset of the columns of a mode-major index
// store: idx[k][at] supplies the k-th tuple element. This avoids gathering a
// temporary tuple in hot loops; unlike Encode it performs no per-element
// range check (inputs are validated at tensor construction), so the
// in-range invariant is asserted only under -tags assert.
func (r *Radix) EncodeStrided(idx [][]uint32, at int) uint64 {
	var ln uint64
	for m := range r.dims {
		// The check is the branch, not Assertf's argument, so the arguments
		// are boxed only when it fails and the encode allocates nothing.
		if invariant.Enabled && uint64(idx[m][at]) >= r.dims[m] {
			invariant.Assertf(false,
				"lnum: index %d out of range for mode %d (size %d); encode would wrap past Card",
				idx[m][at], m, r.dims[m])
		}
		//lint:ignore lnoverflow ln stays below Card, whose uint64 fit NewRadix checked with bits.Mul64
		ln = ln*r.dims[m] + uint64(idx[m][at])
	}
	return ln
}

// Decode inverts Encode into dst, which must have Order() entries. The
// leading mode is the final quotient, so a tuple of k modes costs k-1
// divisions, the arithmetic DecodeColumns uses.
func (r *Radix) Decode(ln uint64, dst []uint32) {
	if len(dst) != len(r.dims) {
		panic(fmt.Sprintf("lnum: Decode arity %d, want %d", len(dst), len(r.dims)))
	}
	if len(dst) == 0 {
		return
	}
	dims := r.dims[:len(dst)]
	for m := len(dst) - 1; m > 0; m-- {
		d := dims[m]
		dst[m] = uint32(ln % d)
		ln /= d
	}
	dst[0] = uint32(ln)
}

// decodeBlock is how many keys DecodeColumns carries through the modes at a
// time; their running quotients live in a stack array of this length.
const decodeBlock = 256

// errColumns is DecodeColumns' panic value for columns that cannot take the
// run: a constant error, so the hot loop boxes nothing.
var errColumns = errors.New("lnum: DecodeColumns needs Order() columns reaching at+len(lns)")

// DecodeColumns inverts Encode for a run of keys straight into mode-major
// columns: lns[j] decodes into cols[0][at+j], ..., cols[Order()-1][at+j].
// Each column is written as one sequential stream. The leading mode is the
// final quotient, so a key costs Order()-1 divisions: one mode is a plain
// conversion. With Order() 0 it writes nothing, whatever cols holds.
// cols[m] for m < Order() must reach at+len(lns); violations panic.
func (r *Radix) DecodeColumns(lns []uint64, cols [][]uint32, at int) {
	dims := r.dims
	if len(dims) == 0 {
		return
	}
	if len(cols) < len(dims) {
		panic(errColumns)
	}
	cols = cols[:len(dims)]
	if invariant.Enabled {
		for _, ln := range lns {
			invariant.Assertf(ln < r.card,
				"lnum: key %d out of range for cardinality %d; decode would truncate the leading mode", ln, r.card)
		}
	}
	if len(dims) == 1 {
		dst := column(cols[0], at, len(lns))
		for j, ln := range lns {
			dst[j] = uint32(ln)
		}
		return
	}
	var rest [decodeBlock]uint64
	for len(lns) > decodeBlock {
		decodeBlockCols(dims, lns[:decodeBlock], cols, at, &rest)
		lns = lns[decodeBlock:]
		at += decodeBlock
	}
	decodeBlockCols(dims, lns, cols, at, &rest)
}

// decodeBlockCols is DecodeColumns for at most decodeBlock keys and at least
// two modes, one mode at a time from the last: each pass writes one column
// and leaves the quotients in rest for the next; the leading column is what
// remains.
func decodeBlockCols(dims []uint64, blk []uint64, cols [][]uint32, at int, rest *[decodeBlock]uint64) {
	if len(blk) > len(rest) || len(dims) < 2 || len(cols) != len(dims) {
		panic(errColumns)
	}
	q := rest[:len(blk)]
	m := len(dims) - 1
	d := dims[m]
	dst := column(cols[m], at, len(blk))
	for j, v := range blk {
		dst[j] = uint32(v % d)
		q[j] = v / d
	}
	for m--; m > 0; m-- {
		d := dims[m]
		dst := column(cols[m], at, len(q))
		for j, v := range q {
			dst[j] = uint32(v % d)
			q[j] = v / d
		}
	}
	dst = column(cols[0], at, len(q))
	for j, v := range q {
		dst[j] = uint32(v)
	}
}

// column is col[at:at+n], or a panic with errColumns when col is too short.
func column(col []uint32, at, n int) []uint32 {
	if uint(at) > uint(len(col)) {
		panic(errColumns)
	}
	col = col[at:]
	if uint(n) > uint(len(col)) {
		panic(errColumns)
	}
	return col[:n]
}

// At extracts the m-th tuple element of an encoded value without decoding
// the whole tuple.
func (r *Radix) At(ln uint64, m int) uint32 {
	return uint32(ln / r.strides[m] % r.dims[m])
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }
