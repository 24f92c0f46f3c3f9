package core

import (
	"context"
	"fmt"

	"sparta/internal/coo"
)

// StreamOptions configures ContractStream and ContractStreamX. The embedded
// Options mean the same as everywhere else (Algorithm must be AlgSparta).
type StreamOptions struct {
	Options
	// SpillZ stages the output through a file-backed RunSpool instead of
	// heap, for contractions whose Z itself exceeds the DRAM budget. The
	// returned tensor is then an mmap view whose pages the kernel may
	// evict (hetmem.Residency.SpillZ decides this from the budget).
	SpillZ bool
	// SpillDir hosts the spool and materialized output files when SpillZ
	// is set ("" = the default temp directory).
	SpillDir string
}

// ContractStreamX computes Z = X ×^{prepared} Y walking the prepared X in
// windows of at most windowNNZ rows (a sub-tensor larger than that is a
// window of its own; windowNNZ <= 0 is one window): only HtY, X, and one
// window's accumulators and output run are hot at once — the serving path's
// degrade tier, where X is resident but its working set is not. The windows
// are sub-slices of px's index over its columns: nothing of X is copied,
// sorted or scanned again.
//
// Output is bitwise identical to PreparedY.ContractX with the same options:
// a window may end at any sub-tensor boundary, every sub-tensor runs through
// the same stage ②–④ code, and the per-window sorted runs are disjoint and
// ascending, so their concatenation IS the in-memory output. A fully
// contracted X is one sub-tensor, so one window.
func ContractStreamX(ctx context.Context, px *PreparedX, windowNNZ int, pr *PreparedY, opt StreamOptions) (*coo.Tensor, *Report, error) {
	if px == nil {
		return nil, nil, fmt.Errorf("core: nil prepared X")
	}
	if pr == nil {
		return nil, nil, fmt.Errorf("core: nil prepared Y")
	}
	p, rep, err := pr.planFor(px.t, px.cmodesX, opt.Options)
	if err != nil {
		return nil, nil, err
	}
	px.fillReport(rep)
	return pr.stream(ctx, p, px.windows(windowNNZ), opt, rep)
}

// ContractStream computes Z = X ×^{prepared} Y walking a sorted mapped file
// (coo.Mapped.Stream) in windows of at most its cap: the out-of-core
// execution tier that turns the paper's heterogeneous-memory placement
// priority into an actual capability. The file is in contraction order, its
// trailing modes pairing with the table's contract modes, so it is PrepareX
// over the file's tensor — which moves nothing, checks the rows against
// Dims, and allocates only the sub-tensor index — then ContractStreamX. The
// mapping is read-only, so Options.InPlace is ignored.
func ContractStream(ctx context.Context, xs coo.Stream, pr *PreparedY, opt StreamOptions) (*coo.Tensor, *Report, error) {
	if xs.T == nil {
		return nil, nil, fmt.Errorf("core: nil X stream")
	}
	if pr == nil {
		return nil, nil, fmt.Errorf("core: nil prepared Y")
	}
	nfx := xs.T.Order() - len(pr.cdims)
	cmodesX := make([]int, len(pr.cdims))
	for k := range cmodesX {
		cmodesX[k] = nfx + k
	}
	opt.InPlace = false
	px, err := PrepareX(ctx, xs.T, cmodesX, opt.Options)
	if err != nil {
		return nil, nil, err
	}
	return ContractStreamX(ctx, px, xs.WindowNNZ, pr, opt)
}

// stream runs the validated contraction p against the table over the windows
// next yields, into the sink opt asks for.
func (pr *PreparedY) stream(ctx context.Context, p *plan, next func() window, opt StreamOptions, rep *Report) (*coo.Tensor, *Report, error) {
	rep.Streamed = true
	pr.fillReport(rep)
	sink := &zSink{dims: p.zdims}
	if opt.SpillZ {
		var err error
		if sink.spool, err = coo.NewRunSpool(opt.SpillDir, p.zdims); err != nil {
			return nil, nil, err
		}
		defer sink.spool.Close() // Materialize closes it too; Close is idempotent
	}
	z, err := runStages(ctx, p, ySide{py: pr}, next, sink, opt.Options, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.SpilledZ = opt.SpillZ
	return z, rep, nil
}

// zSink collects the per-window sorted output runs, which arrive disjoint and
// ascending. Without a spool they stay on the heap and are concatenated at
// the end — the tier for outputs that fit the budget even when X does not.
// With one they go through a file-backed coo.RunSpool whose materialized
// file comes back as an mmap view, so Z is never heap-resident.
type zSink struct {
	dims  []uint64
	runs  []*coo.Tensor
	spool *coo.RunSpool
}

func (s *zSink) append(run *coo.Tensor) error {
	if s.spool != nil {
		return s.spool.Append(run)
	}
	s.runs = append(s.runs, run)
	return nil
}

func (s *zSink) finish() (*coo.Tensor, error) {
	if s.spool == nil {
		return coo.MergeRuns(s.dims, s.runs)
	}
	m, err := s.spool.Materialize()
	if err != nil {
		return nil, err
	}
	return m.Tensor(), nil
}
