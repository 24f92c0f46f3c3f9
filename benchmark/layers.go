package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dist"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/hashtab"
	"sparta/internal/lnum"
	"sparta/internal/sortx"
)

// traceResult is what the traced child reports: the layer metrics it can
// measure itself, the p50 of the workload's own op under the recorder, and
// the spans.
type traceResult struct {
	Layers      map[string]float64 `json:"layers"`
	TracedOpP50 float64            `json:"traced_op_ms_p50"`
	Spans       []span             `json:"spans"`
}

// streamWindowNNZ is the X window of the streamed-tier ratio.
const streamWindowNNZ = 8192

// offHeap returns an n-element slice of pointer-free T backed by an anonymous
// mapping, so the harness's replay buffers (tens of MB on accum_dense) never
// enter the Go heap and shift the GC pacing of the code being timed.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, func() {}, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }, nil
}

// pass is the traced pass over one workload: the benchmark's own recorder
// around calls into each layer's public functions, on the workload's first
// (X, Y) pair. The layer methods run in pipeline order and leave what later
// layers need (the sorted X, the prepared Y, the one-shot p50) in the struct.
type pass struct {
	spec childSpec
	pair pairRef
	rec  *recorder
	ops  int // operation ids handed out so far
	out  map[string]float64

	threads    int
	cx, cy, fy []int // contract modes of X and Y, free modes of Y
	permX      []int // X's free modes, then its contract modes in pairing order
	nfx        int   // number of free modes of X
	x, y       *coo.Tensor
	xs         *coo.Tensor // X permuted to contraction order and sorted
	pr         *core.PreparedY

	oneShotMs float64 // p50 of the traced core.Contract ops
	httpMs    float64 // p50 of the traced POST /contract requests
}

// span runs f inside a span of its own and returns its duration.
func (t *pass) span(name string, f func() error) (time.Duration, error) {
	t.ops++
	d, err := t.rec.timed(name, 0, t.ops, f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// measure calls f n times, each in its own span, and returns the median
// duration in ms.
func (t *pass) measure(name string, n int, f func() error) (float64, error) {
	all := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := t.span(name, f)
		if err != nil {
			return 0, err
		}
		all = append(all, ms(d))
	}
	return median(all), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func mb(bytes uint64) float64    { return float64(bytes) / 1e6 }

// runTrace is the traced child.
func runTrace(spec childSpec) (*traceResult, error) {
	ein, err := einsum.Parse(spec.Manifest.Spec)
	if err != nil {
		return nil, err
	}
	t := &pass{
		spec: spec, pair: spec.Manifest.Pairs[0], rec: newRecorder(), out: map[string]float64{},
		threads: runtime.GOMAXPROCS(0), cx: ein.CmodesX, cy: ein.CmodesY,
	}
	for _, layer := range []func() error{
		t.cooLayer, t.sortxLayer, t.hashtabLayer, t.coreLayer, t.preparedLayers,
		t.parallelLayer, t.distLayer, t.streamLayer, t.serveLayer,
	} {
		if err := layer(); err != nil {
			return nil, err
		}
	}
	res := &traceResult{Layers: t.out, TracedOpP50: t.oneShotMs, Spans: t.rec.spans}
	if spec.Serve {
		res.TracedOpP50 = t.httpMs
	}
	return res, nil
}

// cooLayer: load, map, and rearrange X into contraction order (its free
// modes, then its contract modes in pairing order).
func (t *pass) cooLayer() (err error) {
	fi, err := os.Stat(t.pair.XFile)
	if err != nil {
		return err
	}
	load, err := t.measure("coo.LoadBin", 3, func() (err error) { t.x, err = coo.LoadBin(t.pair.XFile); return })
	if err != nil {
		return err
	}
	t.out["coo.load_mb_s"] = float64(fi.Size()) / 1e6 / (load / 1e3)
	if t.y, err = coo.LoadBin(t.spec.Manifest.YFile); err != nil {
		return err
	}
	if t.out["coo.open_mapped_ms"], err = t.measure("coo.OpenMapped", 5, func() error {
		mp, err := coo.OpenMapped(t.pair.XFile)
		if err != nil {
			return err
		}
		return mp.Close()
	}); err != nil {
		return err
	}
	fx := freeModes(t.x.Order(), t.cx)
	t.nfx, t.fy = len(fx), freeModes(t.y.Order(), t.cy)
	t.permX = append(fx, t.cx...)
	t.out["coo.permute_sort_ms"], err = t.measure("coo.Clone+Permute+SortWith", 5, func() error {
		t.xs = t.x.Clone()
		if err := t.xs.Permute(t.permX); err != nil {
			return err
		}
		t.xs.SortWith(t.threads, coo.SortAuto)
		return nil
	})
	return err
}

// sortxLayer: the radix engine alone, on X's LN keys in the order they
// arrive (already sorted when the contract modes are the trailing ones).
func (t *pass) sortxLayer() error {
	xp := t.x.Clone()
	if err := xp.Permute(t.permX); err != nil {
		return err
	}
	rad, err := xp.Radix()
	if err != nil {
		return err
	}
	kp, free, err := offHeap[sortx.KeyPos](xp.NNZ())
	if err != nil {
		return err
	}
	defer free()
	var all []float64
	for rep := 0; rep < 5; rep++ {
		for i := range kp {
			kp[i] = sortx.KeyPos{Key: rad.EncodeStrided(xp.Inds, i), Pos: int32(i)}
		}
		d, _ := t.span("sortx.Sort", func() error {
			sortx.Sort(kp, rad.Card()-1, t.threads)
			return nil
		})
		all = append(all, ms(d))
	}
	t.out["sortx.sort_mkeys_s"] = float64(len(kp)) / 1e6 / (median(all) / 1e3)
	return nil
}

// hashtabLayer: HtY as a write structure (the build), as a read structure
// (X's contract keys replayed through Lookup), and HtA fed the product
// stream those lookups produce.
func (t *pass) hashtabLayer() error {
	var cdims, fydims []uint64
	for _, mode := range t.cy {
		cdims = append(cdims, t.y.Dims[mode])
	}
	for _, mode := range t.fy {
		fydims = append(fydims, t.y.Dims[mode])
	}
	radC, err := lnum.NewRadix(cdims)
	if err != nil {
		return err
	}
	radF, err := lnum.NewRadix(fydims)
	if err != nil {
		return err
	}
	var hty *hashtab.HtYFlat
	if t.out["hashtab.hty_build_ms"], err = t.measure("hashtab.BuildHtYFlat", 5, func() error {
		hty = hashtab.BuildHtYFlat(t.y, t.cy, t.fy, radC, radF, 0, t.threads)
		return nil
	}); err != nil {
		return err
	}
	t.out["hashtab.hty_build_mb"] = mb(hty.Bytes())

	xs, n := t.xs, t.xs.NNZ()
	ckeys, freeCK, err := offHeap[uint64](n)
	if err != nil {
		return err
	}
	defer freeCK()
	products := 0
	for i := range ckeys {
		ckeys[i] = radC.EncodeStrided(xs.Inds[t.nfx:], i)
		items, _ := hty.Lookup(ckeys[i])
		products += len(items)
	}
	hits := 0
	lookup, err := t.measure("HtYFlat.Lookup replay", 5, func() error {
		hits = 0
		for _, k := range ckeys {
			if items, _ := hty.Lookup(k); items != nil {
				hits++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.out["hashtab.hty_lookup_ns"] = lookup * 1e6 / float64(n)
	t.out["hashtab.hty_hit_ratio"] = float64(hits) / float64(n)

	// The product stream: per X sub-tensor, every (LN(Fy), x·y) the
	// accumulator is handed, in the order stage ③ hands them over.
	ptr, err := xs.SubPtr(t.nfx)
	if err != nil {
		return err
	}
	pk, freePK, err := offHeap[uint64](products)
	if err != nil {
		return err
	}
	defer freePK()
	pv, freePV, err := offHeap[float64](products)
	if err != nil {
		return err
	}
	defer freePV()
	ends := make([]int, 0, len(ptr)) // product index where each sub-tensor ends
	at := 0
	for f := 0; f+1 < len(ptr); f++ {
		for i := ptr[f]; i < ptr[f+1]; i++ {
			items, _ := hty.Lookup(ckeys[i])
			for _, it := range items {
				pk[at], pv[at] = it.LNFree, xs.Vals[i]*it.Val
				at++
			}
		}
		ends = append(ends, at)
	}
	hta := hashtab.NewHtAFlat(1024) // the capacity hint core gives each worker's accumulator
	replay := func() error {
		lo := 0
		for _, hi := range ends {
			hta.Reset()
			for j := lo; j < hi; j++ {
				hta.Add(pk[j], pv[j])
			}
			lo = hi
		}
		return nil
	}
	_ = replay() // grow the table to its working size, as a worker's HtA is after its first sub-tensors
	h0, m0 := hta.Hits, hta.Misses
	add, err := t.measure("HtAFlat.Add replay", 3, replay)
	if err != nil {
		return err
	}
	t.out["hashtab.hta_add_ns"] = add * 1e6 / float64(max(products, 1))
	t.out["hashtab.hta_hit_ratio"] = float64(hta.Hits-h0) / float64(max(hta.Hits-h0+hta.Misses-m0, 1))
	return nil
}

// coreLayer: the one-shot op and its stages, from the returned Report.
func (t *pass) coreLayer() error {
	var opMs, unattr, mprod []float64
	stage := map[string][]float64{}
	var last *core.Report
	for i := 0; i < t.spec.TraceOps; i++ {
		t.ops++
		id := t.rec.begin("core.Contract", 0, t.ops)
		z, rep, err := core.Contract(t.x, t.y, t.cx, t.cy, spartaOpt)
		wall := t.rec.end(id)
		if err != nil {
			return err
		}
		if err := verify(z, t.pair); err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
		// The Report's stage walls become child spans laid end to end. The
		// three computation stages interleave inside one parallel loop and
		// their walls are per-thread maxima, so the layout is schematic;
		// the durations are the Report's.
		var off time.Duration
		for s, name := range []string{"stage 1 input", "stage 2 search", "stage 3 accumulate", "stage 4 writeback", "stage 5 sort"} {
			d := rep.StageWall[s]
			c := t.rec.child(name, id, off, d)
			if s == int(core.StageInput) {
				t.rec.child("hty build", c, d-rep.HtYBuild, rep.HtYBuild)
			}
			off += d
		}
		opMs = append(opMs, ms(wall))
		unattr = append(unattr, 1-float64(off)/float64(wall))
		mprod = append(mprod, float64(rep.Products)/1e6/wall.Seconds())
		for k, d := range map[string]time.Duration{
			"core.stage_input_ms": rep.StageWall[core.StageInput], "core.stage_search_ms": rep.StageWall[core.StageSearch],
			"core.stage_accum_ms": rep.StageWall[core.StageAccum], "core.stage_write_ms": rep.StageWall[core.StageWrite],
			"core.hty_build_ms": rep.HtYBuild, "core.subsort_ms": rep.SubsortWall,
		} {
			stage[k] = append(stage[k], ms(d))
		}
		last = rep
	}
	for k, v := range stage {
		t.out[k] = median(v)
	}
	t.oneShotMs = median(opMs)
	t.out["core.unattributed_frac"] = median(unattr)
	t.out["core.mproducts_s"] = median(mprod)
	t.out["core.products_per_op"] = float64(last.Products)
	t.out["core.nnz_z"] = float64(last.NNZZ)
	t.out["core.zlocal_mb"] = mb(last.BytesZLocal)
	t.out["core.z_mb"] = mb(last.BytesZ)
	return nil
}

// preparedLayers: core's prepared path, and what engine's plan cache adds on
// a hit.
func (t *pass) preparedLayers() (err error) {
	ctx := context.Background()
	if t.out["core.prepare_ms"], err = t.measure("core.PrepareY", 5, func() (err error) {
		t.pr, err = core.PrepareY(t.y, t.cy, spartaOpt)
		return
	}); err != nil {
		return err
	}
	if _, _, err := t.pr.Contract(ctx, t.x, t.cx, spartaOpt); err != nil { // the first use reports the build
		return err
	}
	eng := engine.New(engine.Config{})
	if _, _, err := eng.Contract(ctx, t.x, t.y, t.cx, t.cy, spartaOpt); err != nil { // the miss that fills the plan cache
		return err
	}
	// Warm contractions and plan-cache hits alternate, and the overhead is
	// the median of the pairwise differences, so a slow stretch of the
	// machine does not land on one side only.
	var warmMs, warmIn, warmSearch, hitOver []float64
	for i := 0; i < 10; i++ {
		var rep *core.Report
		dw, err := t.span("PreparedY.Contract", func() (err error) {
			_, rep, err = t.pr.Contract(ctx, t.x, t.cx, spartaOpt)
			return
		})
		if err != nil {
			return err
		}
		dh, err := t.span("Engine.Contract hit", func() error {
			_, _, err := eng.Contract(ctx, t.x, t.y, t.cx, t.cy, spartaOpt)
			return err
		})
		if err != nil {
			return err
		}
		warmMs = append(warmMs, ms(dw))
		warmIn = append(warmIn, ms(rep.StageWall[core.StageInput]))
		warmSearch = append(warmSearch, ms(rep.StageWall[core.StageSearch]))
		hitOver = append(hitOver, ms(dh-dw))
	}
	t.out["core.contract_warm_ms"] = median(warmMs)
	t.out["core.warm_input_ms"] = median(warmIn)
	t.out["core.warm_search_ms"] = median(warmSearch)
	t.out["engine.hit_overhead_ms"] = median(hitOver)
	t.out["engine.fingerprint_ms"], err = t.measure("engine.FingerprintTensor", 5, func() error {
		engine.FingerprintTensor(t.y, t.threads)
		return nil
	})
	return err
}

// parallelLayer: what the second core buys.
func (t *pass) parallelLayer() error {
	one := spartaOpt
	one.Threads = 1
	single, err := t.measure("core.Contract threads=1", 10, func() error {
		_, _, err := core.Contract(t.x, t.y, t.cx, t.cy, one)
		return err
	})
	if err != nil {
		return err
	}
	t.out["parallel.speedup_x"] = single / t.oneShotMs
	return nil
}

// distLayer: scatter, two local shards, gather.
func (t *pass) distLayer() (err error) {
	ctx := context.Background()
	coord, err := dist.NewCoordinator(dist.Config{Executors: []dist.Executor{
		dist.NewLocal("a", dist.LocalConfig{}), dist.NewLocal("b", dist.LocalConfig{}),
	}})
	if err != nil {
		return err
	}
	defer coord.Close()
	var parts []*coo.Tensor
	if t.out["dist.partition_ms"], err = t.measure("dist.Partition", 5, func() (err error) {
		parts, err = dist.Partition(t.x, t.cx, coord.Ring(), t.threads)
		return
	}); err != nil {
		return err
	}
	sharded := func() error { _, _, err := coord.Contract(ctx, t.x, t.y, t.cx, t.cy, spartaOpt); return err }
	if err := sharded(); err != nil { // fills the shards' plan caches
		return err
	}
	coordMs, err := t.measure("Coordinator.Contract", 5, sharded)
	if err != nil {
		return err
	}
	t.out["dist.coord_over_oneshot_x"] = coordMs / t.oneShotMs
	var runs []*coo.Tensor
	for _, p := range parts {
		if p.NNZ() == 0 {
			continue
		}
		z, _, err := t.pr.Contract(ctx, p, t.cx, spartaOpt)
		if err != nil {
			return err
		}
		runs = append(runs, z)
	}
	t.out["coo.merge_ms"], err = t.measure("coo.MergeRuns", 5, func() error {
		_, err := coo.MergeRuns(t.pair.OutDims, runs)
		return err
	})
	return err
}

// streamLayer: mapped X in windows, Z spilled to a file.
func (t *pass) streamLayer() error {
	sorted := filepath.Join(t.spec.WorkDir, t.spec.Manifest.Workload+"-x-sorted.sptn")
	if err := t.xs.SaveBinV2(sorted); err != nil {
		return err
	}
	mapped, err := coo.OpenMapped(sorted)
	if err != nil {
		return err
	}
	defer mapped.Close()
	streamed, err := t.measure("core.ContractStream", 3, func() error {
		ws, err := mapped.Stream(streamWindowNNZ)
		if err != nil {
			return err
		}
		_, _, err = core.ContractStream(context.Background(), ws, t.pr,
			core.StreamOptions{Options: spartaOpt, SpillZ: true, SpillDir: t.spec.WorkDir})
		return err
	})
	if err != nil {
		return err
	}
	t.out["stream.over_inmem_x"] = streamed / t.out["core.contract_warm_ms"]
	return nil
}

// serveLayer: the same pair through a spawned server.
func (t *pass) serveLayer() (err error) {
	srv, err := newServed(t.spec.ServeBin, t.spec.Manifest)
	if err != nil {
		return err
	}
	defer srv.close()
	if t.out["serve.put_ms"], err = t.measure("PUT /tensors", 3, func() error {
		return srv.put("y-again", t.spec.Manifest.YFile)
	}); err != nil {
		return err
	}
	var httpMs, overhead []float64
	for i := 0; i < t.spec.TraceOps; i++ {
		t.ops++
		id := t.rec.begin("POST /contract", 0, t.ops)
		wall, rep, err := srv.contract(0)
		t.rec.end(id)
		if err == nil {
			err = srv.check(0, rep)
		}
		if err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
		inner := time.Duration(rep.WallNS)
		t.rec.child("server wall_ns", id, (wall-inner)/2, inner)
		httpMs = append(httpMs, ms(wall))
		overhead = append(overhead, ms(wall-inner))
	}
	t.httpMs = median(httpMs)
	t.out["serve.http_overhead_ms"] = median(overhead)
	return nil
}
