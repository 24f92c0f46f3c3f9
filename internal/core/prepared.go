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
// cmodesX[k] of X pairs with the k-th prepared contract mode of Y. It is
// PrepareX followed by ContractX; a caller that contracts one X more than
// once keeps the PreparedX and calls ContractX itself.
func (pr *PreparedY) Contract(ctx context.Context, x *coo.Tensor, cmodesX []int, opt Options) (*coo.Tensor, *Report, error) {
	// Everything is validated before PrepareX may sort the caller's tensor
	// (Options.InPlace).
	p, rep, err := pr.planFor(x, cmodesX, opt)
	if err != nil {
		return nil, nil, err
	}
	px, err := PrepareX(ctx, x, cmodesX, opt)
	if err != nil {
		return nil, nil, err
	}
	return contractMain(ctx, p, px, pr, opt, rep)
}

// ContractX runs stages ②–⑤ for a prepared X against the prepared table:
// neither input is scanned before the first HtY probe. Only AlgSparta is
// supported (the baseline algorithms probe COO Y directly and have nothing
// to reuse). The first contraction on a fresh PreparedY charges the build
// time to Report.HtYBuild exactly like the one-shot path; every later one
// reports HtYReused=true with HtYBuild=0 and opens no "hty build" span —
// and the same holds for px, Report.XPrepared and the X share of
// StageInput. Output is bitwise identical to the one-shot Contract with the
// same options, because the same rows, table, radices, and stage ②–⑤ code
// run in both paths.
func (pr *PreparedY) ContractX(ctx context.Context, px *PreparedX, opt Options) (*coo.Tensor, *Report, error) {
	if px == nil {
		return nil, nil, fmt.Errorf("core: nil prepared X")
	}
	p, rep, err := pr.planFor(px.t, px.cmodesX, opt)
	if err != nil {
		return nil, nil, err
	}
	return contractMain(ctx, p, px, pr, opt, rep)
}

// planFor validates a contraction of x over cmodesX against the prepared Y
// and returns its plan and report skeleton.
func (pr *PreparedY) planFor(x *coo.Tensor, cmodesX []int, opt Options) (*plan, *Report, error) {
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
	return p, rep, nil
}

// chargeBuild reports the table's build on the first contraction that uses
// it: that call conceptually ran the build, so it reports it the way the
// one-shot path would.
func (pr *PreparedY) chargeBuild(rep *Report) {
	if pr.uses.Add(1) == 1 {
		rep.HtYReused = false
		rep.HtYBuild = pr.build
	}
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
		ncm:   len(cmodesX),
		nfx:   x.Order() - len(cmodesX),
		nfy:   len(pr.fydims),
		radC:  pr.radC,
		radFY: pr.radFY,
	}
	for _, m := range contractionPerm(inX, cmodesX)[:p.nfx] {
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

// NumFreeModes returns the number of free (kept) Y modes.
func (pr *PreparedY) NumFreeModes() int { return len(pr.fydims) }

// MaxItemLen returns nnz_Fmax of the prepared Y (Eq. 6 input).
func (pr *PreparedY) MaxItemLen() int { return pr.hty.MaxItems }

// NumBuckets returns the prepared key table's bucket/slot count.
func (pr *PreparedY) NumBuckets() int { return pr.hty.NumBuckets() }

// Bytes reports the resident footprint of the prepared plan: the hash table
// plus the radix/dim bookkeeping. The engine's LRU cache budgets on this.
func (pr *PreparedY) Bytes() uint64 {
	return pr.hty.Bytes() + uint64(len(pr.cdims)+len(pr.fydims))*8 + 160
}

// PreparedX is X's half of stage ①, done once: its rows permuted to
// contraction order (free modes first, contract modes last), sorted, and
// indexed by sub-tensor. Stages ②–⑤ read nothing else of X, so a caller that
// contracts one X repeatedly over the same modes (a serving loop, a chain
// step re-run) keeps the PreparedX and every later ContractX starts at the
// first HtY probe.
//
// It holds one copy of the rows: Tensor() is X in contraction row order in
// X's own mode order, the kernel's view is the same columns under the
// contraction permutation, and the index is 8 B per sub-tensor. A PreparedX
// is immutable after PrepareX returns and safe for concurrent contractions,
// as long as nobody writes the tensor it shares columns with.
type PreparedX struct {
	t       *coo.Tensor // rows in contraction order, X's mode order
	view    *coo.Tensor // t's columns, free modes first, contract modes last
	cmodesX []int
	ptrFX   []int // sub-tensor f spans view rows [ptrFX[f], ptrFX[f+1])
	maxSub  int   // nnz_Fmax of X

	sort coo.SortInfo
	// wall is what PrepareX took. The first contraction reports it (and
	// sort) as the one-shot path would; the rest report XPrepared.
	wall time.Duration
	uses atomic.Uint64
}

// PrepareX runs stage ① for X over cmodesX: permute, sort (the "x sort"
// span, on the request's track when ctx carries one), sub-tensor index. Only
// opt.Threads, opt.InPlace, opt.Tracer and opt.Metrics (the sptc_sort_*
// telemetry of the sort) are consulted. X is read but not written unless
// opt.InPlace, which permutes and sorts the caller's tensor instead of
// gathering into fresh columns. An X whose rows are already in contraction
// order is used as it is: Tensor() == x and only the index is allocated.
func PrepareX(ctx context.Context, x *coo.Tensor, cmodesX []int, opt Options) (*PreparedX, error) {
	if x == nil {
		return nil, fmt.Errorf("core: nil X tensor")
	}
	inX, err := modeSet(x.Order(), cmodesX, "X")
	if err != nil {
		return nil, err
	}
	threads := opt.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	t0 := time.Now()
	perm := contractionPerm(inX, cmodesX)
	view := x
	if !opt.InPlace {
		view = x.SortableView()
	}
	if err := view.Permute(perm); err != nil {
		return nil, err
	}
	tr, track, _ := traceTarget(ctx, opt)
	sp := tr.Start("x sort", track)
	info := view.SortWith(threads, coo.SortAuto)
	sp.End()
	publishXSort(opt.Metrics, info, x.NNZ())
	ptrFX, err := view.SubPtrPar(x.Order()-len(cmodesX), threads)
	if err != nil {
		return nil, err
	}
	px := &PreparedX{
		t:       x,
		view:    view,
		cmodesX: append([]int(nil), cmodesX...),
		ptrFX:   ptrFX,
		maxSub:  coo.MaxSubNNZ(ptrFX),
		sort:    info,
	}
	if moved := x.NNZ() > 1 && !info.Stats.Sorted; moved || opt.InPlace {
		back := make([]int, len(perm))
		for m, from := range perm {
			back[from] = m
		}
		if px.t, err = view.PermutedView(back); err != nil {
			return nil, err
		}
	}
	px.wall = time.Since(t0)
	return px, nil
}

// Tensor returns X with its rows in contraction order, in X's own mode
// order: x itself when nothing had to move, else a tensor sharing the
// prepared columns. Contracting it over CmodesX finds stage ① already done.
func (px *PreparedX) Tensor() *coo.Tensor { return px.t }

// CmodesX returns the contract modes X was prepared for; callers must not
// modify the slice.
func (px *PreparedX) CmodesX() []int { return px.cmodesX }

// windows yields px's sub-tensors in ascending order as windows of at most
// limit rows — the greedy grouping coo.Mapped.Stream applies to a file's
// chunks, here over px.ptrFX: a sub-tensor larger than limit is a window of
// its own, and limit <= 0 (or an empty X) is one window of everything.
func (px *PreparedX) windows(limit int) func() (window, error) {
	ptr := px.ptrFX
	lo, nf := 0, len(ptr)-1
	return func() (window, error) {
		if lo < 0 {
			return window{}, nil
		}
		hi := min(lo+1, nf)
		if limit <= 0 {
			hi = nf
		}
		for hi < nf && ptr[hi+1]-ptr[lo] <= limit {
			hi++
		}
		win := window{view: px.view, ptrFX: ptr[lo : hi+1]}
		if lo = hi; hi == nf {
			lo = -1
		}
		return win, nil
	}
}

// fillReport records X's side of stage ① in a contraction's report: the
// first one on a fresh PreparedX reports the reorder and its wall time as the
// one-shot path always has, every later one XPrepared.
func (px *PreparedX) fillReport(rep *Report) {
	rep.NF = len(px.ptrFX) - 1
	rep.MaxSubNNZX = px.maxSub
	rep.BytesX = px.view.Bytes()
	if px.uses.Add(1) == 1 {
		rep.XSort = px.sort
		rep.StageWall[StageInput] += px.wall
		rep.StageCPU[StageInput] += px.wall
		return
	}
	rep.XPrepared = true
}
