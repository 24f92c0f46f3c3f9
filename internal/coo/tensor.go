// Package coo implements the coordinate-format sparse tensor that both SpTC
// algorithms in the paper operate on (§2.1): every non-zero is a tuple of
// mode indices stored in a two-level, mode-major index array plus a value
// array. Mode-major storage makes mode permutation a pointer swap — the
// property the paper relies on for cheap input processing (§3.1, footnote 2).
package coo

import (
	"errors"
	"fmt"
	"math"

	"sparta/internal/lnum"
)

// Tensor is a sparse tensor in COO format.
//
// Inds[m][i] is the mode-m index of the i-th non-zero; Vals[i] its value.
// All index slices have identical length. Dims[m] is the size of mode m.
// A Tensor with zero non-zeros is valid.
type Tensor struct {
	Dims []uint64
	Inds [][]uint32
	Vals []float64

	// backing pins the storage owner of a zero-copy view (the mmap handle
	// of a Mapped tensor) so its finalizer cannot unmap pages this tensor
	// still references. Nil for ordinary heap tensors; Clone never copies
	// it (clones own their storage).
	backing any
}

// New allocates an empty tensor with the given mode sizes and capacity hint.
func New(dims []uint64, capHint int) (*Tensor, error) {
	if len(dims) == 0 {
		return nil, errors.New("coo: tensor must have at least one mode")
	}
	for m, d := range dims {
		if d == 0 {
			return nil, fmt.Errorf("coo: mode %d has size 0", m)
		}
		if d > math.MaxUint32+1 {
			return nil, fmt.Errorf("coo: mode %d size %d exceeds uint32 index range", m, d)
		}
	}
	t := &Tensor{Dims: append([]uint64(nil), dims...)}
	t.Inds = make([][]uint32, len(dims))
	for m := range t.Inds {
		t.Inds[m] = make([]uint32, 0, capHint)
	}
	t.Vals = make([]float64, 0, capHint)
	return t, nil
}

// MustNew is New that panics on error, for tests and generators with
// statically valid shapes.
func MustNew(dims []uint64, capHint int) *Tensor {
	t, err := New(dims, capHint)
	if err != nil {
		panic(err)
	}
	return t
}

// Order returns the number of modes.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Append adds one non-zero. idx must have Order() entries in range; the
// caller is trusted in hot paths, so violations panic rather than error.
func (t *Tensor) Append(idx []uint32, v float64) {
	if len(idx) != len(t.Dims) {
		panic(fmt.Sprintf("coo: Append arity %d, want %d", len(idx), len(t.Dims)))
	}
	for m, x := range idx {
		if uint64(x) >= t.Dims[m] {
			panic(fmt.Sprintf("coo: index %d out of range for mode %d (size %d)", x, m, t.Dims[m]))
		}
		t.Inds[m] = append(t.Inds[m], x)
	}
	t.Vals = append(t.Vals, v)
}

// Index gathers the full index tuple of non-zero i into dst.
func (t *Tensor) Index(i int, dst []uint32) {
	for m := range t.Inds {
		dst[m] = t.Inds[m][i]
	}
}

// Validate checks structural invariants: equal column lengths and in-range
// indices. Generators and I/O call it; algorithms assume it.
func (t *Tensor) Validate() error {
	if len(t.Dims) == 0 {
		return errors.New("coo: no modes")
	}
	if len(t.Inds) != len(t.Dims) {
		return fmt.Errorf("coo: %d index columns for %d modes", len(t.Inds), len(t.Dims))
	}
	n := len(t.Vals)
	for m, col := range t.Inds {
		if len(col) != n {
			return fmt.Errorf("coo: mode %d has %d indices, want %d", m, len(col), n)
		}
		for i, x := range col {
			if uint64(x) >= t.Dims[m] {
				return fmt.Errorf("coo: non-zero %d: index %d out of range for mode %d (size %d)", i, x, m, t.Dims[m])
			}
		}
	}
	return nil
}

// FileBacked reports whether t's columns are views into a mapped file: rows
// that nothing checked against Dims when the file was opened.
func (t *Tensor) FileBacked() bool { return t.backing != nil }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		Dims: append([]uint64(nil), t.Dims...),
		Inds: make([][]uint32, len(t.Inds)),
		Vals: append([]float64(nil), t.Vals...),
	}
	for m := range t.Inds {
		c.Inds[m] = append([]uint32(nil), t.Inds[m]...)
	}
	return c
}

// SortableView returns a tensor that Permute and Sort can be applied to
// without writing to t's storage: it shares t's columns and values but owns
// its Dims and column headers. Permute only moves slice headers and the
// sorter gathers into fresh columns, so neither writes the shared storage.
func (t *Tensor) SortableView() *Tensor {
	return &Tensor{
		Dims:    append([]uint64(nil), t.Dims...),
		Inds:    append([][]uint32(nil), t.Inds...),
		Vals:    t.Vals,
		backing: t.backing,
	}
}

// PermutedView returns t with its modes reordered as Permute would, in a
// tensor of its own that shares t's columns and values; t is not touched.
func (t *Tensor) PermutedView(perm []int) (*Tensor, error) {
	v := t.SortableView()
	if err := v.Permute(perm); err != nil {
		return nil, err
	}
	return v, nil
}

// Permute reorders modes so that new mode m is old mode perm[m]. Only slice
// headers move; non-zero storage is untouched. perm must be a permutation of
// 0..Order()-1.
func (t *Tensor) Permute(perm []int) error {
	if len(perm) != len(t.Dims) {
		return fmt.Errorf("coo: permutation arity %d, want %d", len(perm), len(t.Dims))
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("coo: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	nd := make([]uint64, len(perm))
	ni := make([][]uint32, len(perm))
	for m, p := range perm {
		nd[m] = t.Dims[p]
		ni[m] = t.Inds[p]
	}
	t.Dims, t.Inds = nd, ni
	return nil
}

// IsIdentityPerm reports whether perm is 0,1,2,...
func IsIdentityPerm(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// Radix builds the LN encoder over all modes of t.
func (t *Tensor) Radix() (*lnum.Radix, error) { return lnum.NewRadix(t.Dims) }

// RadixOf builds the LN encoder over a subset of modes of t.
func (t *Tensor) RadixOf(modes []int) (*lnum.Radix, error) {
	dims := make([]uint64, len(modes))
	for k, m := range modes {
		if m < 0 || m >= len(t.Dims) {
			return nil, fmt.Errorf("coo: mode %d out of range (order %d)", m, len(t.Dims))
		}
		dims[k] = t.Dims[m]
	}
	return lnum.NewRadix(dims)
}

// Swap exchanges non-zeros i and j across every mode column and the value
// array. Exported for the sorter; O(order).
func (t *Tensor) Swap(i, j int) {
	for m := range t.Inds {
		col := t.Inds[m]
		col[i], col[j] = col[j], col[i]
	}
	t.Vals[i], t.Vals[j] = t.Vals[j], t.Vals[i]
}

// Less lexicographically compares non-zeros i and j over the current mode
// order.
func (t *Tensor) Less(i, j int) bool {
	for m := range t.Inds {
		a, b := t.Inds[m][i], t.Inds[m][j]
		if a != b {
			return a < b
		}
	}
	return false
}

// Compare returns -1, 0, or 1 ordering non-zeros i and j lexicographically.
func (t *Tensor) Compare(i, j int) int {
	for m := range t.Inds {
		a, b := t.Inds[m][i], t.Inds[m][j]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Bytes estimates the in-memory footprint of the tensor's payload arrays,
// used by the heterogeneous-memory planner.
func (t *Tensor) Bytes() uint64 {
	return uint64(t.NNZ()) * uint64(4*len(t.Dims)+8)
}

// Equal reports exact equality of dims, coordinates, and values (order
// sensitive). Intended for tests on sorted, deduplicated tensors.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.Dims) != len(o.Dims) || t.NNZ() != o.NNZ() {
		return false
	}
	for m := range t.Dims {
		if t.Dims[m] != o.Dims[m] {
			return false
		}
		for i := range t.Inds[m] {
			if t.Inds[m][i] != o.Inds[m][i] {
				return false
			}
		}
	}
	for i := range t.Vals {
		if t.Vals[i] != o.Vals[i] {
			return false
		}
	}
	return true
}

// Scale multiplies every value by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.Vals {
		t.Vals[i] *= s
	}
}

// Dedup merges consecutive equal coordinates by summing values; the tensor
// must already be sorted. Zero-valued results are kept (the paper's
// algorithms never re-sparsify by value). Returns the number of merges.
func (t *Tensor) Dedup() int {
	n := t.NNZ()
	if n == 0 {
		return 0
	}
	w := 0
	merged := 0
	for i := 1; i < n; i++ {
		if t.Compare(w, i) == 0 {
			t.Vals[w] += t.Vals[i]
			merged++
			continue
		}
		w++
		if w != i {
			for m := range t.Inds {
				t.Inds[m][w] = t.Inds[m][i]
			}
			t.Vals[w] = t.Vals[i]
		}
	}
	w++
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:w]
	}
	t.Vals = t.Vals[:w]
	return merged
}

// String summarizes the tensor shape, e.g. "COO[6186x24x77x32] nnz=5330".
func (t *Tensor) String() string {
	s := "COO["
	for m, d := range t.Dims {
		if m > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("%s] nnz=%d", s, t.NNZ())
}
