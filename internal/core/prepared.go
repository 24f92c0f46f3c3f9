package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
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
	yModes

	nnzY   int
	orderY int
	bytesY uint64

	// build is the HtY conversion wall time, reported on the first
	// contraction (as Report.HtYBuild and inside StageInput) and then
	// dropped — reuses report HtYBuild=0, HtYReused=true.
	build time.Duration
	uses  atomic.Uint64
}

// PrepareY runs the COO→HtY conversion for Z = X ×_{?}^{cmodesY} Y once
// (only opt.Threads and opt.Tracer are consulted — the prepared table serves
// any AlgSparta contraction regardless of the other options). Y is read but
// never mutated; the result references none of Y's storage.
func PrepareY(y *coo.Tensor, cmodesY []int, opt Options) (*PreparedY, error) {
	return prepareY(context.Background(), y, cmodesY, opt)
}

// prepareY is PrepareY with its "hty build" span on ctx's request track when
// ctx carries one. It is the only place an HtY is built: the one-shot
// Contract calls it too.
func prepareY(ctx context.Context, y *coo.Tensor, cmodesY []int, opt Options) (*PreparedY, error) {
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
	ym, err := newYModes(y, inY, cmodesY)
	if err != nil {
		return nil, err
	}
	pr := &PreparedY{yModes: ym, nnzY: y.NNZ(), orderY: y.Order(), bytesY: y.Bytes()}

	threads := opt.threads()
	tr, track, _ := traceTarget(ctx, opt)
	sp := tr.Start("hty build", track)
	defer sp.End()
	t0 := time.Now()
	pr.hty = hashtab.BuildHtYFlat(y, cmodesY, pr.fmodes, pr.radC, pr.radFY, 0, threads)
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
// to reuse). The first contraction that completes on a PreparedY is its
// first use: it reports the build as Report.HtYBuild and adds it to
// StageInput, as the one-shot Contract (which is PrepareX, PrepareY and this
// first use) does. Every later one reports HtYReused=true with HtYBuild=0 —
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
// one-shot path does, as HtYBuild and as stage-① work (PreparedX.fillReport's
// rule for X's half).
func (pr *PreparedY) chargeBuild(rep *Report) {
	if pr.uses.Add(1) == 1 {
		rep.HtYReused = false
		rep.HtYBuild = pr.build
		rep.StageWall[StageInput] += pr.build
		rep.StageCPU[StageInput] += pr.build
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
	return pr.plan(x, inX, cmodesX), nil
}

// fillReport records the table side of a contraction's report, marked
// reused until chargeBuild finds this is the table's first use.
func (pr *PreparedY) fillReport(rep *Report) {
	rep.HtYReused = true
	rep.BytesY = pr.bytesY
	rep.BytesHtY = pr.hty.Bytes()
	rep.BucketsHtY = pr.hty.NumBuckets()
	rep.DistinctKeysY = pr.hty.NKeys
	rep.MaxSubNNZY = pr.hty.MaxItems
	rep.EstBytesHtY = hashtab.EstimateHtYBytes(pr.nnzY, pr.orderY, pr.hty.NumBuckets())
	rep.HtYBuildWalls = pr.hty.Walls
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
// order is used as it is: Tensor() == x and only the index is allocated — a
// sorted mapped file stays in the page cache. A file-backed X (coo.Mapped)
// has its rows checked against Dims first: opening it checked none.
func PrepareX(ctx context.Context, x *coo.Tensor, cmodesX []int, opt Options) (*PreparedX, error) {
	if x == nil {
		return nil, fmt.Errorf("core: nil X tensor")
	}
	inX, err := modeSet(x.Order(), cmodesX, "X")
	if err != nil {
		return nil, err
	}
	if x.FileBacked() {
		if err := x.Validate(); err != nil {
			return nil, fmt.Errorf("core: mapped X: %w", err)
		}
	}
	threads := opt.threads()
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
// limit rows, grouped greedily over px.ptrFX: a sub-tensor larger than limit
// is a window of its own, and limit <= 0 (or an empty X) is one window of
// everything. It is the only code that chooses where a window ends, for a
// resident X and a mapped file alike.
func (px *PreparedX) windows(limit int) func() window {
	ptr := px.ptrFX
	lo, nf := 0, len(ptr)-1
	return func() window {
		if lo < 0 {
			return window{}
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
		return win
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
