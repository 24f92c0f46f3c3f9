package main

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is frozen: it is the oracle every timed operation is checked
// against, so it shares no code with the library under test. It works on
// plain slices only and must not be "optimised" together with the kernels.

// refTensor is a COO tensor as bare slices: inds[m][i] is the mode-m index
// of non-zero i.
type refTensor struct {
	dims []uint64
	inds [][]uint32
	vals []float64
}

// digest summarises a contraction output without keeping it: the non-zero
// count, an order-independent hash of the coordinate set, Σ|v|, and a
// coordinate-weighted Σ v·w(coord) that moves when a value lands on the wrong
// coordinate. Two outputs agree when NNZ and Hash are equal and the sums
// agree to relTol (summation order differs between implementations).
type digest struct {
	NNZ    int     `json:"nnz"`
	Hash   uint64  `json:"hash"`
	SumAbs float64 `json:"sum_abs"`
	WSum   float64 `json:"wsum"`
}

const relTol = 1e-9

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds one output non-zero, identified by its row-major linear
// coordinate, into the digest.
func (d *digest) add(key uint64, v float64) {
	h := mix64(key + 0x9e3779b97f4a7c15)
	d.NNZ++
	d.Hash += h
	d.SumAbs += math.Abs(v)
	d.WSum += v * (1 + float64(h>>11)/(1<<53))
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// matches reports how got differs from the reference digest, or nil.
func (d digest) matches(got digest) error {
	switch {
	case got.NNZ != d.NNZ:
		return fmt.Errorf("nnz %d, reference %d", got.NNZ, d.NNZ)
	case got.Hash != d.Hash:
		return fmt.Errorf("coordinate hash %016x, reference %016x", got.Hash, d.Hash)
	case !closeTo(got.SumAbs, d.SumAbs):
		return fmt.Errorf("sum|v| %.17g, reference %.17g", got.SumAbs, d.SumAbs)
	case !closeTo(got.WSum, d.WSum):
		return fmt.Errorf("weighted sum %.17g, reference %.17g", got.WSum, d.WSum)
	}
	return nil
}

// rowMajor returns the strides that linearise coordinates over dims, or an
// error when the coordinate space does not fit 64 bits.
func rowMajor(dims []uint64) ([]uint64, error) {
	strides := make([]uint64, len(dims))
	card := uint64(1)
	for m := len(dims) - 1; m >= 0; m-- {
		strides[m] = card
		hi, lo := bits.Mul64(card, dims[m])
		if hi != 0 {
			return nil, fmt.Errorf("reference: coordinate space of %v exceeds 64 bits", dims)
		}
		card = lo
	}
	return strides, nil
}

// digestTensor digests a materialised tensor.
func digestTensor(t refTensor) (digest, error) {
	strides, err := rowMajor(t.dims)
	if err != nil {
		return digest{}, err
	}
	var d digest
	for i, v := range t.vals {
		var key uint64
		for m, s := range strides {
			key += uint64(t.inds[m][i]) * s
		}
		d.add(key, v)
	}
	return d, nil
}

// freeModes lists the modes of an order-N tensor that are not contracted, in
// mode order.
func freeModes(order int, contracted []int) []int {
	var free []int
	for m := 0; m < order; m++ {
		keep := true
		for _, c := range contracted {
			keep = keep && c != m
		}
		if keep {
			free = append(free, m)
		}
	}
	return free
}

// referenceContract computes Z = X ×_{cx}^{cy} Y the plain way: index Y by
// its contract tuple in a map, then for every non-zero of X add x·y into a
// map keyed by the output coordinate. Output modes are X's free modes in
// order followed by Y's (a fully contracted result is the 1-mode, size-1
// tensor). It returns the output mode sizes and the output as a map from
// row-major coordinate to value.
func referenceContract(x, y refTensor, cx, cy []int) ([]uint64, map[uint64]float64, error) {
	if len(cx) != len(cy) || len(cx) == 0 {
		return nil, nil, fmt.Errorf("reference: %d X contract modes against %d Y contract modes", len(cx), len(cy))
	}
	cdims := make([]uint64, len(cx))
	for k := range cx {
		if x.dims[cx[k]] != y.dims[cy[k]] {
			return nil, nil, fmt.Errorf("reference: contract pair %d has sizes %d and %d", k, x.dims[cx[k]], y.dims[cy[k]])
		}
		cdims[k] = x.dims[cx[k]]
	}
	fx, fy := freeModes(len(x.dims), cx), freeModes(len(y.dims), cy)
	var outDims []uint64
	for _, m := range fx {
		outDims = append(outDims, x.dims[m])
	}
	for _, m := range fy {
		outDims = append(outDims, y.dims[m])
	}
	if len(outDims) == 0 {
		outDims = []uint64{1}
	}
	cstr, err := rowMajor(cdims)
	if err != nil {
		return nil, nil, err
	}
	ostr, err := rowMajor(outDims)
	if err != nil {
		return nil, nil, err
	}
	key := func(t refTensor, modes []int, strides []uint64, i int) uint64 {
		var k uint64
		for j, m := range modes {
			//lint:ignore lnoverflow k stays below the product of the mode sizes, whose uint64 fit rowMajor checked with bits.Mul64
			k += uint64(t.inds[m][i]) * strides[j]
		}
		return k
	}

	byKey := make(map[uint64][]int32)
	for i := range y.vals {
		k := key(y, cy, cstr, i)
		byKey[k] = append(byKey[k], int32(i))
	}
	out := make(map[uint64]float64)
	for i, xv := range x.vals {
		xo := key(x, fx, ostr[:len(fx)], i)
		for _, j := range byKey[key(x, cx, cstr, i)] {
			out[xo+key(y, fy, ostr[len(fx):], int(j))] += xv * y.vals[j]
		}
	}
	return outDims, out, nil
}

// digestMap digests a reference output.
func digestMap(out map[uint64]float64) digest {
	var d digest
	for k, v := range out {
		d.add(k, v)
	}
	return d
}
