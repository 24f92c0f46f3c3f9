package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

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
