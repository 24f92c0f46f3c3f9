package main

// The names in this file are the benchmark's contract: BENCHMARK.json lists
// the same metrics (bench_test.go checks the two agree) and later issues
// refer to them by name.

// e2eMetric is one gated end-to-end metric. The reported value is the median
// over rounds; times and rates are first scaled by each window's
// machine-speed factor (see calibrate.go).
type e2eMetric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Meaning string  `json:"meaning"`
}

var e2eMetrics = []e2eMetric{
	{"op_ms_p50", "ms", "lower", 0.25,
		"median wall time of one contraction request within a window, scaled to the reference machine speed"},
	{"throughput_ops_s", "ops/s", "higher", 0.20,
		"verified ops ÷ time spent in ops (closed loop, 1 client, verification excluded), scaled to the reference machine speed"},
	{"alloc_mb_per_op", "MB", "lower", 0.10,
		"heap bytes allocated per op by the process that contracts (runtime.MemStats.TotalAlloc delta; the server's for serve_warm)"},
	{"peak_rss_mb", "MB", "lower", 0.10,
		"VmHWM of the process that contracts, at window end"},
	{"setup_s", "s", "lower", 0.25,
		"child start → inputs loaded → workload prepared → warm-up ops done, scaled to the reference machine speed"},
}

// layerMetric is one per-layer diagnostic of the traced pass. Moves names the
// end-to-end metric and workload the layer is expected to move; NoEffect
// names workloads where a change to this layer is predicted to change nothing.
type layerMetric struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Moves    string `json:"moves"`
	NoEffect string `json:"no_effect,omitempty"`
	Meaning  string `json:"meaning"`
}

var layerMetrics = []layerMetric{
	{"coo.load_mb_s", "MB/s", "higher", "setup_s on every workload", "",
		"coo.LoadBin of the X file"},
	{"coo.permute_sort_ms", "ms", "lower", "op_ms_p50 on serve_warm", "cold_build, accum_dense, write_out (X already in contraction order)",
		"Clone + Permute + SortWith of X into contraction order"},
	{"coo.open_mapped_ms", "ms", "lower", "none yet (streamed tier)", "",
		"coo.OpenMapped + Close of the X file"},
	{"coo.merge_ms", "ms", "lower", "none yet (sharded tier)", "",
		"coo.MergeRuns over the two per-shard output runs"},
	{"sortx.sort_mkeys_s", "Mkeys/s", "higher", "op_ms_p50 on serve_warm", "cold_build, accum_dense, write_out (pre-sorted keys take the scan-only path)",
		"sortx.Sort over X's LN keys in contraction order"},

	{"hashtab.hty_build_ms", "ms", "lower", "op_ms_p50 on cold_build; setup_s on serve_warm", "accum_dense, write_out",
		"hashtab.BuildHtYFlat of Y"},
	{"hashtab.hty_build_mb", "MB", "lower", "peak_rss_mb on cold_build", "accum_dense, write_out",
		"HtYFlat.Bytes of the built table"},
	{"hashtab.hty_lookup_ns", "ns", "lower", "op_ms_p50 on serve_warm, then cold_build", "",
		"HtYFlat.Lookup per X non-zero, replaying X's contract keys"},
	{"hashtab.hty_hit_ratio", "ratio", "higher", "none (input property)", "",
		"lookups that found a Y sub-tensor ÷ lookups"},
	{"hashtab.hta_add_ns", "ns", "lower", "op_ms_p50 on accum_dense, then write_out", "cold_build, serve_warm",
		"HtAFlat.Add per product, replaying the product stream with Reset per sub-tensor"},
	{"hashtab.hta_hit_ratio", "ratio", "higher", "none (input property)", "",
		"adds that accumulated into an existing key ÷ adds"},

	{"core.stage_input_ms", "ms", "lower", "op_ms_p50 on cold_build", "",
		"Report.StageWall[input], median of the traced ops"},
	{"core.stage_search_ms", "ms", "lower", "op_ms_p50 on cold_build, serve_warm", "",
		"Report.StageWall[search]"},
	{"core.stage_accum_ms", "ms", "lower", "op_ms_p50 on accum_dense", "cold_build",
		"Report.StageWall[accumulation]"},
	{"core.stage_write_ms", "ms", "lower", "op_ms_p50, alloc_mb_per_op, peak_rss_mb on write_out", "cold_build",
		"Report.StageWall[writeback]"},
	{"core.hty_build_ms", "ms", "lower", "op_ms_p50 on cold_build", "",
		"Report.HtYBuild"},
	{"core.subsort_ms", "ms", "lower", "op_ms_p50 on write_out", "",
		"Report.SubsortWall (per-run sorts inside the fused gather)"},
	{"core.unattributed_frac", "ratio", "lower", "none (conservation check, reported not asserted)", "",
		"1 − Σ stage walls ÷ op wall; negative when the per-thread-maximum stage walls overlap"},
	{"core.prepare_ms", "ms", "lower", "setup_s on serve_warm", "",
		"core.PrepareY"},
	{"core.contract_warm_ms", "ms", "lower", "op_ms_p50 on serve_warm", "",
		"PreparedY.Contract against the prepared table"},
	{"core.warm_input_ms", "ms", "lower", "op_ms_p50 on serve_warm", "",
		"Report.StageWall[input] of PreparedY.Contract: X clone + permute + sort, no build"},
	{"core.warm_search_ms", "ms", "lower", "op_ms_p50 on serve_warm", "",
		"Report.StageWall[search] of PreparedY.Contract: HtY as a read structure"},
	{"core.products_per_op", "count", "lower", "none (exact work count)", "",
		"Report.Products"},
	{"core.nnz_z", "count", "lower", "none (exact output size)", "",
		"Report.NNZZ"},
	{"core.mproducts_s", "Mprod/s", "higher", "throughput_ops_s on accum_dense, write_out", "",
		"products ÷ op wall"},
	{"core.zlocal_mb", "MB", "lower", "alloc_mb_per_op, peak_rss_mb on write_out", "",
		"Report.BytesZLocal"},
	{"core.z_mb", "MB", "lower", "alloc_mb_per_op on write_out", "",
		"Report.BytesZ"},

	{"engine.fingerprint_ms", "ms", "lower", "op_ms_p50 on serve_warm", "cold_build, accum_dense, write_out",
		"engine.FingerprintTensor of Y"},
	{"engine.hit_overhead_ms", "ms", "lower", "op_ms_p50 on serve_warm", "cold_build, accum_dense, write_out",
		"Engine.Contract on a plan-cache hit − PreparedY.Contract, median of paired differences"},
	{"serve.http_overhead_ms", "ms", "lower", "op_ms_p50 on serve_warm", "cold_build, accum_dense, write_out",
		"client latency − the reply's wall_ns"},
	{"serve.put_ms", "ms", "lower", "setup_s on serve_warm", "cold_build, accum_dense, write_out",
		"PUT /tensors of Y as binary SPTN"},

	{"dist.partition_ms", "ms", "lower", "none yet (sharded tier)", "",
		"dist.Partition of X over a 2-shard ring"},
	{"dist.coord_over_oneshot_x", "x", "lower", "none yet (sharded tier)", "",
		"Coordinator.Contract over 2 Local executors ÷ one-shot core.Contract"},
	{"stream.over_inmem_x", "x", "lower", "none yet (streamed tier)", "",
		"ContractStream over OpenMapped X, window 8192, spilled Z ÷ PreparedY.Contract"},

	{"parallel.speedup_x", "x", "higher", "throughput_ops_s on every workload", "",
		"core.Contract p50 at Threads 1 ÷ p50 at the default thread count"},
	{"parallel.cpu_ms_per_op", "ms", "lower", "throughput_ops_s on every workload", "",
		"user+system CPU of the contracting process ÷ ops, untraced rounds"},
	{"gc.cycles_per_op", "count", "lower", "throughput_ops_s, alloc_mb_per_op on write_out", "",
		"NumGC delta ÷ ops, untraced rounds"},
	{"gc.pause_ms_per_op", "ms", "lower", "op_ms_p50 on write_out", "",
		"PauseTotalNs delta ÷ ops, untraced rounds"},
	{"alloc.objects_per_op", "count", "lower", "alloc_mb_per_op on write_out", "",
		"Mallocs delta ÷ ops, untraced rounds"},
	{"machine.speed_x", "x", "higher", "none (how slow the machine was; the factor the timing metrics are scaled by)", "",
		"calRefMs ÷ the window's calibration p50, median over rounds: 1 on the quiet reference machine, below 1 when it is slowed from outside"},
	{"raw.op_ms_p50", "ms", "lower", "none (unscaled; swings with the machine)", "",
		"median op wall time within a window as measured, best (min) round"},
	{"raw.throughput_ops_s", "ops/s", "higher", "none (unscaled; swings with the machine)", "",
		"verified ops ÷ time spent in ops as measured, best (max) round"},
	{"tail.op_ms_p90", "ms", "lower", "none (does not repeat within a tenth here)", "",
		"p90 of op wall as measured, median over rounds"},
	{"tail.op_ms_max", "ms", "lower", "none (does not repeat within a tenth here)", "",
		"slowest op as measured, median over rounds"},
	{"noise.round_spread", "ratio", "lower", "none (how disturbed the run was)", "",
		"(max − min) ÷ min of the per-round op p50 as measured"},
	{"trace.overhead_frac", "ratio", "lower", "none (cost of the recorder)", "",
		"traced op p50 ÷ median over rounds of the untraced op p50 − 1, both as measured"},
}

// disturbedSpread flags a run whose rounds disagree by more than this; the
// run is still reported.
const disturbedSpread = 0.25

// minWindowOps is the sample count a window median needs.
const minWindowOps = 40
