package core

import (
	"context"
	"time"

	"sparta/internal/coo"
	"sparta/internal/invariant"
	"sparta/internal/obs"
	"sparta/internal/parallel"
)

// This file implements the two-phase (symbolic + numeric) SpTC that §3.2 of
// the paper describes as the traditional SpGEMM answer to the
// unknown-output-size problem [47] — and argues against: "every SpTC is
// attached to both a symbolic phase and SpTC computation, which is very
// expensive", particularly because applications compute each SpTC only once
// in a long contraction sequence, so the symbolic work is never amortized.
//
// The symbolic phase runs the full index-search + accumulation structure
// with keys only (no floating-point values) to count the exact output
// non-zeros per X sub-tensor; the numeric phase then recomputes the
// products and writes them directly into the exactly-allocated Z — no
// thread-local Zlocal buffers and no gather, the one advantage two-phase
// has over Sparta's dynamic approach. The ablation (sptc-bench -exp
// twophase) measures the trade both ways.

// contractTwoPhase runs Z = X × Y with HtY + HtA data structures but
// two-phase output allocation. Inputs are pre-validated by Contract. Both
// parallel phases checkpoint ctx between chunk claims.
func contractTwoPhase(ctx context.Context, p *plan, px *PreparedX, opt Options, rep *Report) (*coo.Tensor, error) {
	threads := rep.Threads
	tr, track, reqMode := traceTarget(ctx, opt)
	xw, ptrFX := px.view, px.ptrFX

	// ① Input processing — X arrives prepared, Y's half is Sparta's.
	spInput := tr.Start("input processing", track)
	t0 := time.Now()
	hty := buildHtY(ctx, p, opt, threads, rep)
	rep.StageWall[StageInput] = time.Since(t0)
	rep.StageCPU[StageInput] = rep.StageWall[StageInput]
	px.fillReport(rep)
	spInput.End()

	// chunk < 1 defers the chunk size to ForChunked's own heuristic.
	nf := rep.NF
	cCols := xw.Inds[p.nfx:]

	// --- Symbolic phase: count exact output non-zeros per sub-tensor ----
	spSym := tr.Start("symbolic phase", track)
	t0 = time.Now()
	counts := make([]int, nf)
	symWorkers := makeWorkers(threads, p, Options{Algorithm: AlgSparta, Metrics: opt.Metrics})
	symErr := parallel.ForChunkedWorkCtx(ctx, threads, nf, 0, int64(xw.NNZ()), func(tid, lo, hi int) {
		var sp obs.Span
		if !reqMode {
			sp = tr.Start("symbolic chunk", tid+1)
		}
		defer sp.End()
		w := symWorkers[tid]
		for f := lo; f < hi; f++ {
			for i := ptrFX[f]; i < ptrFX[f+1]; i++ {
				items, _ := hty.Lookup(p.radC.EncodeStrided(cCols, i))
				for _, it := range items {
					w.hta.Add(it.LNFree, 0) // structure only; values ignored
				}
			}
			counts[f] = w.hta.Len()
			w.hta.Reset()
		}
	})
	rep.Symbolic = time.Since(t0)
	spSym.End()
	if symErr != nil {
		return nil, symErr
	}
	zoff, total := parallel.PrefixSum(counts)
	if opt.MaxOutputNNZ > 0 && total > opt.MaxOutputNNZ {
		return nil, &OutputTooLargeError{Got: total, Limit: opt.MaxOutputNNZ}
	}

	// Exact allocation — the symbolic phase's payoff.
	z, err := coo.New(p.zdims, 0)
	if err != nil {
		return nil, err
	}
	for m := range z.Inds {
		z.Inds[m] = make([]uint32, total)
	}
	z.Vals = make([]float64, total)

	// --- Numeric phase: recompute with values, write straight into Z ----
	ws := makeWorkers(threads, p, Options{Algorithm: AlgSparta, Metrics: opt.Metrics})
	spNum := tr.Start("numeric phase", track)
	numErr := parallel.ForChunkedWorkCtx(ctx, threads, nf, 0, int64(xw.NNZ()), func(tid, lo, hi int) {
		var sp obs.Span
		if !reqMode {
			sp = tr.Start("subtensor chunk", tid+1)
		}
		defer sp.End()
		w := ws[tid]
		w.startClock()
		defer w.stopClock()
		for f := lo; f < hi; f++ {
			// ②③ index search and accumulation, as in subSparta
			if !w.searchHtY(p, xw, hty, ptrFX[f], ptrFX[f+1]) {
				invariant.Assertf(counts[f] == 0,
					"two-phase: sub-tensor %d matched nothing numerically but counted %d keys symbolically", f, counts[f])
				continue
			}
			w.stamp(&w.searchNS)
			w.accumulateHtY()
			w.stamp(&w.accumNS)

			// ④ writeback: straight into the pre-sized Z at this
			// sub-tensor's exact offset, column by column.
			pos := zoff[f]
			xAt := ptrFX[f]
			keys, vals := w.hta.Keys(), w.hta.Vals()
			if invariant.Enabled {
				// The numeric phase re-runs the exact index structure the
				// symbolic phase counted; a mismatch would smear this
				// sub-tensor's rows over its neighbor's pre-allocated range.
				invariant.Assertf(len(keys) == counts[f],
					"two-phase: sub-tensor %d produced %d keys numerically but %d symbolically",
					f, len(keys), counts[f])
			}
			end := pos + len(keys)
			for m := 0; m < p.nfx; m++ {
				v := xw.Inds[m][xAt]
				col := z.Inds[m][pos:end]
				for j := range col {
					col[j] = v
				}
			}
			p.radFY.DecodeColumns(keys, z.Inds[p.nfx:p.nfx+p.nfy], pos)
			copy(z.Vals[pos:end], vals)
			w.hta.Reset()
			w.stamp(&w.writeNS)
		}
	})
	spNum.End()
	if numErr != nil {
		return nil, numErr
	}
	mergeWorkerStats(rep, ws)
	for _, sw := range symWorkers {
		b := sw.hta.Bytes()
		rep.BytesHtA += b
		if b > rep.BytesHtAPerThr {
			rep.BytesHtAPerThr = b
		}
	}
	rep.NNZZ = z.NNZ()
	rep.BytesZ = z.Bytes()
	// BytesZLocal stays 0: two-phase has no thread-local output buffers.

	// ⑤ Output sorting.
	if !opt.SkipOutputSort {
		spSort := tr.Start("output sort", track)
		t0 = time.Now()
		z.Sort(threads)
		rep.StageWall[StageSort] = time.Since(t0)
		rep.StageCPU[StageSort] = rep.StageWall[StageSort]
		spSort.End()
	}
	publishMetrics(opt.Metrics, rep, ws, symWorkers)
	return z, nil
}
