package sparta

import (
	"context"

	"sparta/internal/core"
	"sparta/internal/einsum"
)

// Einsum contracts two sparse tensors with Einstein-summation notation, the
// interface chemistry codes express contractions in (e.g. the paper's §2.2
// walk-through is "abef,efcd->abcd"):
//
//	z, rep, err := sparta.Einsum("abef,efcd->abcd", x, y, opts)
//
// Rules: exactly two inputs and one output; every label names one mode
// (one letter per mode, case-sensitive); a label shared by both inputs and
// absent from the output is contracted; every other input label must appear
// in the output exactly once. Repeated labels within one operand (traces)
// are not supported — the paper's SpTC covers mode-({n},{m}) products.
//
// The output mode order follows the spec's right-hand side; when it differs
// from the engine's natural order (X's free modes then Y's), the result is
// permuted and re-sorted.
func Einsum(spec string, x, y *Tensor, opt Options) (*Tensor, *Report, error) {
	return EinsumCtx(context.Background(), spec, x, y, opt)
}

// EinsumCtx is Einsum with cancellation: a canceled context or expired
// deadline stops the contraction at the next parallel chunk boundary and
// returns ctx.Err().
func EinsumCtx(ctx context.Context, spec string, x, y *Tensor, opt Options) (*Tensor, *Report, error) {
	ein, err := einsum.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.CheckRanks(spec, x.Order(), y.Order()); err != nil {
		return nil, nil, err
	}
	z, rep, err := core.ContractCtx(ctx, x, y, ein.CmodesX, ein.CmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := ein.Output(z, !opt.SkipOutputSort, opt.Threads); err != nil {
		return nil, nil, err
	}
	return z, rep, nil
}
