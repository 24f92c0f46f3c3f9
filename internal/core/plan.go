// Package core implements the four SpTC algorithms the paper evaluates:
//
//   - AlgSPA:      COO Y + sparse accumulator (Algorithm 1, "SpTC-SPA")
//   - AlgCOOHtA:   COO Y + hash-table accumulator (the middle bar of Fig. 4)
//   - AlgSparta:   hash-table Y + hash-table accumulator (Algorithm 2, Sparta)
//   - AlgTwoPhase: hash-table Y and accumulator with a symbolic pass that
//     sizes Z exactly (the §3.2 approach the paper argues against)
//
// All four share the five-stage structure — input processing, index search,
// accumulation, writeback, output sorting — and report per-stage timing and
// operation counters so every figure of the evaluation can be regenerated.
// The two hash-table-Y algorithms run on prepared operands: stage ① is
// PrepareX plus PrepareY's HtY build, and a one-shot Contract does both
// before it probes.
package core

import (
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/lnum"
)

// plan holds the mode bookkeeping for one contraction Z = X ×_{cx}^{cy} Y.
type plan struct {
	y *coo.Tensor // the baselines' COO Y; X and Sparta's Y arrive prepared

	nfx, nfy int // number of free modes of X and Y
	ncm      int // number of contract-mode pairs

	permY []int // Y permutation: contract modes first (used by COO-Y algorithms)

	// A prepared X's modes are [free... contract...]. These radices are
	// built over the *paired* contract dims and Y's free dims.
	radC  *lnum.Radix // contract-key encoder (shared by X probes and Y build)
	radFY *lnum.Radix // Y free-index encoder (HtA keys, Z decode)

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
	for k := range cmodesX {
		if dx, dy := x.Dims[cmodesX[k]], y.Dims[cmodesY[k]]; dx != dy {
			return nil, fmt.Errorf("core: contract pair %d: X mode %d has size %d but Y mode %d has size %d",
				k, cmodesX[k], dx, cmodesY[k], dy)
		}
	}
	ym, err := newYModes(y, inY, cmodesY)
	if err != nil {
		return nil, err
	}
	p := ym.plan(x, inX, cmodesX)
	p.y = y
	// Y: contract modes first in pairing order, then free modes.
	p.permY = append(append(p.permY, cmodesY...), ym.fmodes...)
	return p, nil
}

// yModes is what a contraction needs of Y's modes: the contract-mode sizes
// in pairing order, the free modes and their sizes, and the radices over
// both.
type yModes struct {
	cdims  []uint64
	fmodes []int
	fydims []uint64
	radC   *lnum.Radix
	radFY  *lnum.Radix
}

func newYModes(y *coo.Tensor, inY []bool, cmodesY []int) (yModes, error) {
	var ym yModes
	for _, m := range cmodesY {
		ym.cdims = append(ym.cdims, y.Dims[m])
	}
	for m, contracted := range inY {
		if !contracted {
			ym.fmodes = append(ym.fmodes, m)
			ym.fydims = append(ym.fydims, y.Dims[m])
		}
	}
	var err error
	if ym.radC, err = lnum.NewRadix(ym.cdims); err != nil {
		return ym, fmt.Errorf("core: contract modes: %w", err)
	}
	if ym.radFY, err = lnum.NewRadix(ym.fydims); err != nil {
		return ym, fmt.Errorf("core: Y free modes: %w", err)
	}
	return ym, nil
}

// plan is the contraction of an X, already validated against Y's modes,
// over cmodesX (inX is modeSet's mask of them).
func (ym *yModes) plan(x *coo.Tensor, inX []bool, cmodesX []int) *plan {
	p := &plan{
		ncm:   len(cmodesX),
		nfx:   x.Order() - len(cmodesX),
		nfy:   len(ym.fydims),
		radC:  ym.radC,
		radFY: ym.radFY,
	}
	for _, m := range contractionPerm(inX, cmodesX)[:p.nfx] {
		p.zdims = append(p.zdims, x.Dims[m])
	}
	p.zdims = append(p.zdims, ym.fydims...)
	if len(p.zdims) == 0 {
		// Full contraction: Z is a scalar, represented as a 1-mode tensor
		// of size 1 with a single non-zero at index 0.
		p.zdims = []uint64{1}
		p.scalar = true
	}
	return p
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
