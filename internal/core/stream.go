package core

import (
	"context"
	"fmt"
	"time"

	"sparta/internal/coo"
)

// XStream yields sorted X windows in contraction mode order (free modes
// first, contract modes last): a mapped file's coo.WindowStream — every
// window boundary must be a mode-0 index change, which is what makes
// per-window outputs disjoint. A resident X streams through ContractStreamX
// instead, as windows of its PreparedX.
type XStream interface {
	// Dims returns the streamed tensor's mode sizes, already permuted to
	// contraction order.
	Dims() []uint64
	// NNZ returns the total non-zero count across all windows.
	NNZ() int
	// Next returns the next sorted window view, or (nil, nil) at the end.
	Next() (*coo.Tensor, error)
}

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

// ContractStream computes Z = X ×^{prepared} Y walking a stream of X windows
// from a file (coo.Mapped.Stream): only HtY, one window of X, and one
// window's accumulators are ever hot at once — the out-of-core execution
// tier that turns the paper's heterogeneous-memory placement priority into an
// actual capability. Each window is bounds-checked and indexed as its pages
// fault in. Output is bitwise identical to PreparedY.Contract with the same
// options, for ContractStreamX's reason.
//
// The contraction must keep at least one free X mode: windows end at mode-0
// changes, which are sub-tensor boundaries only when mode 0 is free.
func ContractStream(ctx context.Context, xs XStream, pr *PreparedY, opt StreamOptions) (*coo.Tensor, *Report, error) {
	if xs == nil {
		return nil, nil, fmt.Errorf("core: nil X stream")
	}
	if pr == nil {
		return nil, nil, fmt.Errorf("core: nil prepared Y")
	}
	dims := xs.Dims()
	nfx := len(dims) - len(pr.cdims)
	if nfx < 1 {
		return nil, nil, fmt.Errorf("core: streamed contraction needs at least one free X mode (fully contracted X must run in memory)")
	}
	// The stream is in contraction order: its trailing modes pair with the
	// table's contract modes. planFor validates only the dims of the X it is
	// given; the report's NNZX is the stream's.
	cmodesX := make([]int, len(pr.cdims))
	for k := range cmodesX {
		cmodesX[k] = nfx + k
	}
	p, rep, err := pr.planFor(&coo.Tensor{Dims: dims}, cmodesX, opt.Options)
	if err != nil {
		return nil, nil, err
	}
	rep.NNZX = xs.NNZ()
	rep.BytesX = uint64(xs.NNZ()) * uint64(4*len(dims)+8)
	next := func() (window, error) {
		for {
			t0 := time.Now()
			win, err := xs.Next()
			if err != nil || win == nil {
				return window{}, err
			}
			if win.NNZ() == 0 {
				continue
			}
			// mmap'd files skip full validation at open; check each window's
			// indices as its pages fault in, so a corrupt file errors
			// instead of producing garbage output.
			if err := win.Validate(); err != nil {
				return window{}, fmt.Errorf("core: streamed X window: %w", err)
			}
			ptrFX, err := win.SubPtrPar(nfx, rep.Threads)
			if err != nil {
				return window{}, err
			}
			rep.NF += len(ptrFX) - 1
			rep.MaxSubNNZX = max(rep.MaxSubNNZX, coo.MaxSubNNZ(ptrFX))
			d := time.Since(t0)
			rep.StageWall[StageInput] += d
			rep.StageCPU[StageInput] += d
			return window{view: win, ptrFX: ptrFX}, nil
		}
	}
	return pr.stream(ctx, p, next, opt, rep)
}

// stream runs the validated contraction p against the table over the windows
// next yields, into the sink opt asks for.
func (pr *PreparedY) stream(ctx context.Context, p *plan, next func() (window, error), opt StreamOptions, rep *Report) (*coo.Tensor, *Report, error) {
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
