// Package core implements the three SpTC algorithms the paper evaluates:
//
//   - AlgSPA:    COO Y + sparse accumulator (Algorithm 1, "SpTC-SPA")
//   - AlgCOOHtA: COO Y + hash-table accumulator (the middle bar of Fig. 4)
//   - AlgSparta: hash-table Y + hash-table accumulator (Algorithm 2, Sparta)
//
// All three share the five-stage structure — input processing, index search,
// accumulation, writeback, output sorting — and report per-stage timing and
// operation counters so every figure of the evaluation can be regenerated.
package core

import (
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// plan holds the mode bookkeeping for one contraction Z = X ×_{cx}^{cy} Y.
type plan struct {
	y *coo.Tensor // X arrives as a *PreparedX

	nfx, nfy int // number of free modes of X and Y
	ncm      int // number of contract-mode pairs

	permY []int // Y permutation: contract modes first (used by COO-Y algorithms)

	// A prepared X's modes are [free... contract...]. These radices are
	// built over the *paired* contract dims and Y's free dims.
	radC  *lnum.Radix // contract-key encoder (shared by X probes and Y build)
	radFY *lnum.Radix // Y free-index encoder (HtA keys, Z decode)

	// For HtY construction on the un-permuted Y.
	cmodesY, fmodesY []int

	zdims  []uint64 // free dims of X ++ free dims of Y; [1] for full contraction
	scalar bool     // true when both tensors are fully contracted
}

// newPlan validates the contraction spec and computes permutations, radices
// and output dims. cmodesX[k] of X is contracted with cmodesY[k] of Y; the
// paired mode sizes must match.
func newPlan(x, y *coo.Tensor, cmodesX, cmodesY []int) (*plan, error) {
	if len(cmodesX) != len(cmodesY) {
		return nil, fmt.Errorf("core: %d contract modes for X but %d for Y", len(cmodesX), len(cmodesY))
	}
	if len(cmodesX) == 0 {
		return nil, fmt.Errorf("core: contraction needs at least one contract-mode pair")
	}
	if len(cmodesX) > x.Order() || len(cmodesY) > y.Order() {
		return nil, fmt.Errorf("core: more contract modes than tensor modes")
	}
	inX, err := modeSet(x.Order(), cmodesX, "X")
	if err != nil {
		return nil, err
	}
	inY, err := modeSet(y.Order(), cmodesY, "Y")
	if err != nil {
		return nil, err
	}
	cdims := make([]uint64, len(cmodesX))
	for k := range cmodesX {
		dx, dy := x.Dims[cmodesX[k]], y.Dims[cmodesY[k]]
		if dx != dy {
			return nil, fmt.Errorf("core: contract pair %d: X mode %d has size %d but Y mode %d has size %d",
				k, cmodesX[k], dx, cmodesY[k], dy)
		}
		cdims[k] = dx
	}

	p := &plan{
		y:   y,
		ncm: len(cmodesX),
		nfx: x.Order() - len(cmodesX),
		nfy: y.Order() - len(cmodesY),
	}

	// Y: contract modes first in pairing order, then free modes.
	p.permY = append(p.permY, cmodesY...)
	for m := 0; m < y.Order(); m++ {
		if !inY[m] {
			p.permY = append(p.permY, m)
			p.fmodesY = append(p.fmodesY, m)
		}
	}
	p.cmodesY = append([]int(nil), cmodesY...)

	if p.radC, err = lnum.NewRadix(cdims); err != nil {
		return nil, fmt.Errorf("core: contract modes: %w", err)
	}
	fydims := make([]uint64, 0, p.nfy)
	for _, m := range p.fmodesY {
		fydims = append(fydims, y.Dims[m])
	}
	if p.radFY, err = lnum.NewRadix(fydims); err != nil {
		return nil, fmt.Errorf("core: Y free modes: %w", err)
	}

	for _, m := range contractionPerm(inX, cmodesX)[:p.nfx] {
		p.zdims = append(p.zdims, x.Dims[m])
	}
	p.zdims = append(p.zdims, fydims...)
	if len(p.zdims) == 0 {
		// Full contraction: Z is a scalar, represented as a 1-mode tensor
		// of size 1 with a single non-zero at index 0.
		p.zdims = []uint64{1}
		p.scalar = true
	}
	return p, nil
}

// contractionPerm is the "correct mode order" of X (§3.1): its free modes
// first, keeping their original relative order, then its contract modes in
// pairing order. inX is modeSet's mask of cmodesX.
func contractionPerm(inX []bool, cmodesX []int) []int {
	perm := make([]int, 0, len(inX))
	for m, contracted := range inX {
		if !contracted {
			perm = append(perm, m)
		}
	}
	return append(perm, cmodesX...)
}

// modeSet validates a contract-mode list and returns its membership mask.
func modeSet(order int, modes []int, name string) ([]bool, error) {
	in := make([]bool, order)
	for _, m := range modes {
		if m < 0 || m >= order {
			return nil, fmt.Errorf("core: contract mode %d out of range for %s (order %d)", m, name, order)
		}
		if in[m] {
			return nil, fmt.Errorf("core: contract mode %d listed twice for %s", m, name)
		}
		in[m] = true
	}
	return in, nil
}

// zOrder returns the output order (>=1 even for scalars).
func (p *plan) zOrder() int { return len(p.zdims) }
