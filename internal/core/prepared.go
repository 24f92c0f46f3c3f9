package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/lnum"
	"sparta/internal/parallel"
)

// PreparedY is the reusable half of a contraction: Y converted to its HtY
// hash-table form with the contract/free radices that probing and Z decoding
// need. Building one runs the stage-① work the paper charges to every SpTC
// call; a chain of contractions against the same Y (tensor-network chains,
// repeated serving queries) amortizes it by calling Contract on the same
// PreparedY many times.
//
// A PreparedY is self-contained: it snapshots Y's dims and derived radices
// and never touches the source tensor again, so later in-place mutation of Y
// (chain steps with Options.InPlace) cannot corrupt it. It is immutable
// after PrepareY returns and safe for concurrent Contract calls.
type PreparedY struct {
	hty *hashtab.HtYFlat

	cdims  []uint64 // contract-mode sizes in pairing order
	fydims []uint64 // Y free-mode sizes in mode order
	radC   *lnum.Radix
	radFY  *lnum.Radix

	nnzY   int
	orderY int
	bytesY uint64

	// build is the HtY conversion wall time, reported on the first
	// contraction (where it plays the role of Report.HtYBuild) and then
	// dropped — reuses report HtYBuild=0, HtYReused=true.
	build time.Duration
	uses  atomic.Uint64
}

// PrepareY runs the COO→HtY conversion for Z = X ×_{?}^{cmodesY} Y once
// (only opt.Threads and opt.Tracer are consulted — the prepared table serves
// any AlgSparta contraction regardless of the other options). Y is read but
// never mutated; the result references none of Y's storage.
func PrepareY(y *coo.Tensor, cmodesY []int, opt Options) (*PreparedY, error) {
	if y == nil {
		return nil, fmt.Errorf("core: PrepareY: nil tensor")
	}
	if len(cmodesY) == 0 {
		return nil, fmt.Errorf("core: contraction needs at least one contract-mode pair")
	}
	inY, err := modeSet(y.Order(), cmodesY, "Y")
	if err != nil {
		return nil, err
	}
	pr := &PreparedY{
		nnzY:   y.NNZ(),
		orderY: y.Order(),
		bytesY: y.Bytes(),
	}
	var fmodesY []int
	for _, m := range cmodesY {
		pr.cdims = append(pr.cdims, y.Dims[m])
	}
	for m := 0; m < y.Order(); m++ {
		if !inY[m] {
			fmodesY = append(fmodesY, m)
			pr.fydims = append(pr.fydims, y.Dims[m])
		}
	}
	if pr.radC, err = lnum.NewRadix(pr.cdims); err != nil {
		return nil, fmt.Errorf("core: contract modes: %w", err)
	}
	if pr.radFY, err = lnum.NewRadix(pr.fydims); err != nil {
		return nil, fmt.Errorf("core: Y free modes: %w", err)
	}

	threads := opt.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	sp := opt.Tracer.Start("hty build", 0)
	defer sp.End()
	t0 := time.Now()
	pr.hty = hashtab.BuildHtYFlat(y, cmodesY, fmodesY, pr.radC, pr.radFY, 0, threads)
	pr.build = time.Since(t0)
	return pr, nil
}

// Contract computes Z = X ×_{cmodesX} Y against the prepared table:
// cmodesX[k] of X pairs with the k-th prepared contract mode of Y. Only
// AlgSparta is supported (the baseline algorithms probe COO Y directly and
// have nothing to reuse). The first Contract on a fresh PreparedY charges
// the build time to Report.HtYBuild exactly like the one-shot path; every
// later call reports HtYReused=true with HtYBuild=0 and opens no "hty
// build" span. Output is bitwise identical to the one-shot Contract with
// the same options, because the same table, radices, and stage ②–⑤ code
// run in both paths.
func (pr *PreparedY) Contract(ctx context.Context, x *coo.Tensor, cmodesX []int, opt Options) (*coo.Tensor, *Report, error) {
	if opt.Algorithm != AlgSparta {
		return nil, nil, fmt.Errorf("core: prepared contraction supports only %v, got %v", AlgSparta, opt.Algorithm)
	}
	p, err := pr.newPlanX(x, cmodesX)
	if err != nil {
		return nil, nil, err
	}
	rep, err := checkOptions(opt, x.NNZ(), pr.nnzY)
	if err != nil {
		return nil, nil, err
	}
	z, rep, err := contractMain(ctx, p, pr, opt, rep)
	if err != nil {
		return nil, nil, err
	}
	if pr.uses.Add(1) == 1 {
		// First use: this call conceptually ran the build, so report it
		// the way the one-shot path would.
		rep.HtYReused = false
		rep.HtYBuild = pr.build
	}
	return z, rep, nil
}

// newPlanX builds the contraction plan for an X against the prepared Y,
// validating the pairing the way newPlan does for two COO tensors.
func (pr *PreparedY) newPlanX(x *coo.Tensor, cmodesX []int) (*plan, error) {
	if x == nil {
		return nil, fmt.Errorf("core: nil X tensor")
	}
	if len(cmodesX) != len(pr.cdims) {
		return nil, fmt.Errorf("core: %d contract modes for X but %d prepared for Y", len(cmodesX), len(pr.cdims))
	}
	if len(cmodesX) > x.Order() {
		return nil, fmt.Errorf("core: more contract modes than tensor modes")
	}
	inX, err := modeSet(x.Order(), cmodesX, "X")
	if err != nil {
		return nil, err
	}
	for k := range cmodesX {
		if dx := x.Dims[cmodesX[k]]; dx != pr.cdims[k] {
			return nil, fmt.Errorf("core: contract pair %d: X mode %d has size %d but prepared Y mode has size %d",
				k, cmodesX[k], dx, pr.cdims[k])
		}
	}
	p := &plan{
		x:     x,
		ncm:   len(cmodesX),
		nfx:   x.Order() - len(cmodesX),
		nfy:   len(pr.fydims),
		radC:  pr.radC,
		radFY: pr.radFY,
	}
	p.permX = contractionPerm(inX, cmodesX)
	for _, m := range p.permX[:p.nfx] {
		p.zdims = append(p.zdims, x.Dims[m])
	}
	p.zdims = append(p.zdims, pr.fydims...)
	if len(p.zdims) == 0 {
		p.zdims = []uint64{1}
		p.scalar = true
	}
	return p, nil
}

// fillReport copies the table-side statistics buildHtY would have
// recorded, so warm-path reports stay comparable to cold ones.
func (pr *PreparedY) fillReport(rep *Report) {
	reportHtY(rep, pr.hty, pr.nnzY, pr.orderY, pr.bytesY)
}

// NNZY returns the non-zero count of the prepared Y.
func (pr *PreparedY) NNZY() int { return pr.nnzY }

// OrderY returns the mode count of the prepared Y.
func (pr *PreparedY) OrderY() int { return pr.orderY }

// NumFreeModes returns the number of free (kept) Y modes.
func (pr *PreparedY) NumFreeModes() int { return len(pr.fydims) }

// MaxItemLen returns nnz_Fmax of the prepared Y (Eq. 6 input).
func (pr *PreparedY) MaxItemLen() int { return pr.hty.MaxItems }

// NumBuckets returns the prepared key table's bucket/slot count.
func (pr *PreparedY) NumBuckets() int { return pr.hty.NumBuckets() }

// BuildTime returns the wall time of the COO→HtY conversion.
func (pr *PreparedY) BuildTime() time.Duration { return pr.build }

// Bytes reports the resident footprint of the prepared plan: the hash table
// plus the radix/dim bookkeeping. The engine's LRU cache budgets on this.
func (pr *PreparedY) Bytes() uint64 {
	return pr.hty.Bytes() + uint64(len(pr.cdims)+len(pr.fydims))*8 + 160
}

// EstBytesHtY returns the Eq. 5 size estimate for the prepared table.
func (pr *PreparedY) EstBytesHtY() uint64 {
	return hashtab.EstimateHtYBytes(pr.nnzY, pr.orderY, pr.hty.NumBuckets())
}
