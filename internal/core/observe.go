package core

import (
	"time"

	"sparta/internal/coo"
	"sparta/internal/obs"
)

// stageKey maps a Stage to its Prometheus label value (short, stable,
// lowercase — Stage.String() stays the human-facing table label).
var stageKey = [NumStages]string{
	StageInput:  "input",
	StageSearch: "search",
	StageAccum:  "accum",
	StageWrite:  "write",
	StageSort:   "sort",
}

// publishXSort records the radix-sort engine telemetry of one X sort (stage
// ①): partition count plus a skew ratio — largest MSD partition over the
// perfectly balanced share, so 1.0 means the MSD digit spreads the keys
// evenly and 256.0 means one digit value held every key. Pass counters
// expose how much the constant-digit skip saves. PrepareX calls it where the
// sort runs, so a contraction on an X prepared earlier adds nothing.
func publishXSort(reg *obs.Registry, info coo.SortInfo, nnzX int) {
	if reg == nil {
		return
	}
	st := info.Stats
	reg.Counter("sptc_sort_radix_passes_total", "radix digit passes scheduled by the X sort").Add(uint64(st.Passes))
	reg.Counter("sptc_sort_radix_skipped_total", "radix digit passes skipped as constant").Add(uint64(st.Skipped))
	if st.Partitions > 0 && nnzX > 0 {
		reg.Gauge("sptc_sort_partitions", "non-empty MSD partitions in the last X sort").
			Set(float64(st.Partitions))
		reg.Gauge("sptc_sort_partition_skew", "largest MSD partition over the balanced share (1.0 = uniform)").
			Set(float64(st.MaxRun) * float64(st.Partitions) / float64(nnzX))
	}
}

// publishMetrics folds one finished contraction into the registry: the
// Report's per-stage wall times and counters, plus the distribution metrics
// only the workers hold — probe-length shards, per-worker busy time, Zlocal
// growth, and the resulting load imbalance. symWs carries the two-phase
// symbolic workers (nil otherwise). Everything here runs once per Contract,
// after the parallel sections — never on the hot path.
func publishMetrics(reg *obs.Registry, rep *Report, ws, symWs []*worker) {
	if reg == nil {
		return
	}
	alg := rep.Algorithm.String()
	reg.Counter("sptc_contractions_total", "contractions completed", "alg", alg).Inc()
	reg.Counter("sptc_threads_used_total", "worker threads summed over contractions").Add(uint64(rep.Threads))

	for s := Stage(0); s < NumStages; s++ {
		reg.Histogram("sptc_stage_wall_seconds", "wall time per SpTC stage",
			obs.TimeBuckets, "stage", stageKey[s]).Observe(rep.StageWall[s].Seconds())
	}
	if rep.HtYBuild > 0 {
		reg.Histogram("sptc_hty_build_seconds", "COO Y to HtY conversion wall time",
			obs.TimeBuckets).Observe(rep.HtYBuild.Seconds())
	}
	if rep.Symbolic > 0 {
		reg.Histogram("sptc_symbolic_wall_seconds", "two-phase symbolic phase wall time",
			obs.TimeBuckets).Observe(rep.Symbolic.Seconds())
	}

	reg.Counter("sptc_hty_probes_total", "HtY 8-slot control words inspected").Add(rep.ProbesHtY)
	reg.Counter("sptc_hta_probes_total", "HtA slot inspections").Add(rep.ProbesHtA)
	reg.Counter("sptc_products_total", "scalar multiply-adds", "alg", alg).Add(rep.Products)
	reg.Counter("sptc_search_steps_total", "baseline COO-Y linear search steps").Add(rep.SearchSteps)
	reg.Counter("sptc_y_lookups_total", "index-search outcomes", "outcome", "hit").Add(rep.HitsY)
	reg.Counter("sptc_y_lookups_total", "index-search outcomes", "outcome", "miss").Add(rep.MissY)
	reg.Counter("sptc_accum_total", "accumulator Add outcomes", "outcome", "hit").Add(rep.AccumHits)
	reg.Counter("sptc_accum_total", "accumulator Add outcomes", "outcome", "miss").Add(rep.AccumMiss)
	reg.Counter("sptc_accum_dense_subtensors_total", "X sub-tensors accumulated in the direct-indexed array instead of HtA").Add(rep.DenseSubs)

	byteGauges := []struct {
		object string
		v      uint64
	}{
		{"x", rep.BytesX}, {"y", rep.BytesY}, {"hty", rep.BytesHtY},
		{"hta", rep.BytesHtA}, {"zlocal", rep.BytesZLocal}, {"z", rep.BytesZ},
	}
	for _, g := range byteGauges {
		reg.Gauge("sptc_object_bytes", "memory footprint of the last contraction's objects",
			"object", g.object).Set(float64(g.v))
	}
	reg.Gauge("sptc_output_nnz", "non-zeros of the last output tensor Z").Set(float64(rep.NNZZ))

	if rep.SubsortWall > 0 {
		reg.Histogram("sptc_fused_subsort_seconds", "per-run LN(Fy) sort time inside the fused writeback",
			obs.TimeBuckets).Observe(rep.SubsortWall.Seconds())
	}

	htyH := reg.Histogram("sptc_hty_probe_length", "HtY 8-slot control words inspected per index-search lookup",
		obs.ProbeBuckets)
	htaH := reg.Histogram("sptc_hta_probe_length", "HtA probe length per accumulate",
		obs.ProbeBuckets)
	busyH := reg.Histogram("sptc_worker_busy_seconds", "per-worker compute time (search+accum+write)",
		obs.TimeBuckets)
	zlocalH := reg.Histogram("sptc_zlocal_bytes", "per-worker Zlocal buffer footprint",
		obs.ByteBuckets)

	var maxBusy, sumBusy float64
	mergeWorkers := func(workers []*worker, numeric bool) {
		for _, w := range workers {
			htyH.Merge(w.htyProbe)
			if w.hta != nil {
				// A direct-indexed add is a probe of length 1. The dense
				// loops never touch the shard; their adds are booked here,
				// in bulk (a nil shard ignores it).
				w.hta.ProbeHist.ObserveN(1, w.denseAdds)
				htaH.Merge(w.hta.ProbeHist)
			}
			if !numeric {
				continue
			}
			busy := time.Duration(w.searchNS + w.accumNS + w.writeNS).Seconds()
			busyH.Observe(busy)
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			if b := w.z.bytes(); b > 0 {
				zlocalH.Observe(float64(b))
			}
		}
	}
	mergeWorkers(ws, true)
	mergeWorkers(symWs, false)

	// Load imbalance = slowest worker over the mean: 1.0 is a perfect split
	// of the sub-tensor chunks, 2.0 means one worker did twice its share.
	if mean := sumBusy / float64(len(ws)); mean > 0 {
		reg.Gauge("sptc_worker_load_imbalance", "max worker busy time over mean (1.0 = balanced)").
			Set(maxBusy / mean)
	}
}
