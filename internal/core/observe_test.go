package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/obs"
)

// findSnap returns the first snapshot matching name and a label substring
// ("" matches any label set).
func findSnap(snaps []obs.Snapshot, name, labelSub string) *obs.Snapshot {
	for i := range snaps {
		if snaps[i].Name == name && strings.Contains(snaps[i].Labels, labelSub) {
			return &snaps[i]
		}
	}
	return nil
}

// TestContractObservability runs an instrumented contraction and checks the
// three pillars at once: the trace has spans, the registry has the probe
// histograms, and the published stage-wall metrics agree with Report.StageWall.
func TestContractObservability(t *testing.T) {
	x := randomSparse([]uint64{40, 50, 30}, 1500, 1)
	y := randomSparse([]uint64{50, 30, 45}, 1500, 2)

	for _, alg := range []Algorithm{AlgSparta, AlgTwoPhase} {
		tr := obs.NewTracer()
		reg := obs.NewRegistry()
		_, rep, err := Contract(x, y, []int{1, 2}, []int{0, 1}, Options{
			Algorithm: alg, Threads: 3, Tracer: tr, Metrics: reg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if tr.Len() == 0 {
			t.Fatalf("%v: tracer recorded no events", alg)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("%v: trace export is not valid JSON", alg)
		}

		snaps := reg.Snapshot()
		hty := findSnap(snaps, "sptc_hty_probe_length", "")
		if hty == nil || hty.Count == 0 {
			t.Fatalf("%v: HtY probe histogram missing or empty", alg)
		}
		if hty.Count != rep.HitsY+rep.MissY {
			t.Errorf("%v: HtY probe observations %d != lookups %d",
				alg, hty.Count, rep.HitsY+rep.MissY)
		}
		hta := findSnap(snaps, "sptc_hta_probe_length", "")
		if hta == nil || hta.Count == 0 {
			t.Fatalf("%v: HtA probe histogram missing or empty", alg)
		}
		// One Add per product; the two-phase symbolic workers add a
		// second structural pass, so >= is the invariant across algs.
		if hta.Count < rep.Products {
			t.Errorf("%v: HtA probe observations %d < products %d",
				alg, hta.Count, rep.Products)
		}

		// Consistency with Report.StageWall: each stage's wall time was
		// observed once, so the histogram sum over all stages equals the
		// report total (sans HtY build, which is inside StageInput).
		var sumWall float64
		for s := Stage(0); s < NumStages; s++ {
			sn := findSnap(snaps, "sptc_stage_wall_seconds", `stage="`+stageKey[s]+`"`)
			if sn == nil || sn.Count != 1 {
				t.Fatalf("%v: stage %v wall metric missing", alg, s)
			}
			if got, want := sn.Sum, rep.StageWall[s].Seconds(); got != want {
				t.Errorf("%v: stage %v wall metric %v != report %v", alg, s, got, want)
			}
			sumWall += sn.Sum
		}
		var wantWall float64
		for s := Stage(0); s < NumStages; s++ {
			wantWall += rep.StageWall[s].Seconds()
		}
		if got := sumWall; got < wantWall*0.999 || got > wantWall*1.001 {
			t.Errorf("%v: stage wall sum %v != report sum %v", alg, got, wantWall)
		}

		if g := findSnap(snaps, "sptc_output_nnz", ""); g == nil || g.Value != float64(rep.NNZZ) {
			t.Errorf("%v: output nnz gauge inconsistent with report", alg)
		}
		if g := findSnap(snaps, "sptc_worker_load_imbalance", ""); g == nil || g.Value < 1 {
			t.Errorf("%v: load imbalance gauge missing or < 1", alg)
		}
	}
}

// TestContractUnconfigured pins the zero-cost path: no tracer, no registry,
// and the contraction is oblivious.
func TestContractUnconfigured(t *testing.T) {
	x := randomSparse([]uint64{20, 20}, 200, 3)
	y := randomSparse([]uint64{20, 20}, 200, 4)
	z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() == 0 || rep == nil {
		t.Fatal("contraction under nil observability failed")
	}
}

// TestProbeTallyMatchesPerLookupObserve: searchHtY counts probe lengths below
// 16 in the worker's tally and folds them into the shard when the chunk ends;
// the histogram that reaches the registry — every bucket and the sum — is the
// one a per-lookup Observe gives. The table is built at its smallest legal
// size (one free slot), so misses walk long runs of full groups and the
// lengths fall on both sides of 16.
func TestProbeTallyMatchesPerLookupObserve(t *testing.T) {
	const slots = 1 << 12
	rng := rand.New(rand.NewSource(7))
	y := coo.MustNew([]uint64{4 * slots, 8}, 0)
	for _, c := range rng.Perm(4 * slots)[:slots-1] {
		y.Append([]uint32{uint32(c), uint32(rng.Intn(8))}, 1)
	}
	x := coo.MustNew([]uint64{1, 4 * slots}, 0)
	for c := 0; c < 4*slots; c++ {
		x.Append([]uint32{0, uint32(c)}, 1)
	}
	radC, err := y.RadixOf([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	radFY, err := y.RadixOf([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	hty := hashtab.BuildHtYFlat(y, []int{0}, []int{1}, radC, radFY, slots, 1)
	if hty.NumBuckets() != slots || hty.NKeys != slots-1 {
		t.Fatalf("table has %d slots for %d keys, want %d for %d", hty.NumBuckets(), hty.NKeys, slots, slots-1)
	}

	reg := obs.NewRegistry()
	want := reg.Histogram("want", "", obs.ProbeBuckets)
	short, long := 0, 0
	for i := 0; i < x.NNZ(); i++ {
		_, probes := hty.Lookup(radC.EncodeStrided(x.Inds[1:], i))
		want.Observe(float64(probes))
		if probes < 16 {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("%d lookups probed < 16 control words and %d >= 16: the table should give both", short, long)
	}

	p := &plan{nfx: 1, ncm: 1, nfy: 1, radC: radC, radFY: radFY}
	w := makeWorkers(1, p, Options{Metrics: reg})[0]
	for lo := 0; lo < x.NNZ(); lo += 1000 { // several chunks: the tally is folded and cleared each time
		w.startClock()
		w.searchHtY(p, x, hty, lo, min(lo+1000, x.NNZ()))
		w.stopClock()
	}
	got := reg.Histogram("got", "", obs.ProbeBuckets)
	got.Merge(w.htyProbe)
	snaps := reg.Snapshot()
	g, wnt := findSnap(snaps, "got", ""), findSnap(snaps, "want", "")
	if g.Sum != wnt.Sum || g.Count != wnt.Count || !slices.Equal(g.Counts, wnt.Counts) {
		t.Errorf("tallied histogram: counts %v sum %v\nper-lookup Observe: counts %v sum %v", g.Counts, g.Sum, wnt.Counts, wnt.Sum)
	}
	if w.probeTally != [len(w.probeTally)]uint64{} {
		t.Errorf("stopClock left lengths in the tally: %v", w.probeTally)
	}
	if uint64(wnt.Sum) != w.probesHtY {
		t.Errorf("histogram sum %v, probesHtY %d", wnt.Sum, w.probesHtY)
	}
}
