package coo

import (
	"fmt"

	"sparta/internal/parallel"
)

// SubPtr computes ptrF from the paper (Table 1): boundaries of the mode-F
// sub-tensors of a *sorted* tensor whose first `freeModes` mode indices are
// equal. ptr has len NF+1 with sub-tensor f spanning non-zeros
// [ptr[f], ptr[f+1]). With freeModes == 0 the whole tensor is one sub-tensor.
//
// The computation stages parallelize over these sub-tensors (Line 5 of
// Algorithm 2), so each accumulates to a disjoint slice of the output.
func (t *Tensor) SubPtr(freeModes int) ([]int, error) {
	return t.SubPtrPar(freeModes, 0)
}

// SubPtrPar is SubPtr with an explicit thread count (< 1 means GOMAXPROCS).
// It counts, then fills: every thread counts the boundaries in its row
// range, a prefix sum gives each its slice of an exactly sized ptr, and the
// fill pass writes them. Neither pass branches on the data — a row starts a
// sub-tensor on about every second row of a many-small-sub-tensor X, which
// no predictor follows.
func (t *Tensor) SubPtrPar(freeModes, threads int) ([]int, error) {
	if freeModes < 0 || freeModes > len(t.Dims) {
		return nil, fmt.Errorf("coo: SubPtr freeModes %d out of range (order %d)", freeModes, len(t.Dims))
	}
	n := t.NNZ()
	if n == 0 {
		return []int{0}, nil
	}
	cols := t.Inds[:freeModes]
	// Item i of both loops is row i+1: row 0 never starts a counted
	// sub-tensor, ptr[0] = 0 stands for it.
	threads = parallel.ClampWork(threads, n-1, int64(n))
	counts := make([]int, threads)
	parallel.For(threads, n-1, func(tid, lo, hi int) {
		c := 0
		for i := lo + 1; i <= hi; i++ {
			c += startsSub(cols, i)
		}
		counts[tid] = c
	})
	offsets, total := parallel.PrefixSum(counts)
	ptr := make([]int, total+2)
	ptr[total+1] = n
	parallel.For(threads, n-1, func(tid, lo, hi int) {
		// The store is unconditional and the cursor advances only past a
		// real boundary; stopping at the thread's last boundary keeps the
		// store after it out of the next thread's first slot.
		dst := ptr[1+offsets[tid]:][:counts[tid]]
		w := 0
		for i := lo + 1; w < len(dst) && i <= hi; i++ {
			dst[w] = i
			w += startsSub(cols, i)
		}
	})
	return ptr, nil
}

// startsSub is 1 when row i differs from row i-1 in any of cols, else 0,
// computed without a branch on the data.
func startsSub(cols [][]uint32, i int) int {
	var d uint32
	for _, col := range cols {
		d |= col[i] ^ col[i-1]
	}
	return int((d | -d) >> 31)
}

// MaxSubNNZ returns nnz_Fmax from Eq. 6: the largest sub-tensor size under
// the given grouping pointers.
func MaxSubNNZ(ptr []int) int {
	max := 0
	for f := 0; f+1 < len(ptr); f++ {
		if s := ptr[f+1] - ptr[f]; s > max {
			max = s
		}
	}
	return max
}
