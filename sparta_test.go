package sparta

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeContract(t *testing.T) {
	x := Random([]uint64{10, 8}, 30, 1)
	y := Random([]uint64{8, 6}, 30, 2)
	z, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	if z.NNZ() == 0 || rep.NNZZ != z.NNZ() {
		t.Fatal("facade contraction broken")
	}
}

func TestChooseY(t *testing.T) {
	big := Random([]uint64{10, 10}, 80, 3)
	small := Random([]uint64{10, 10}, 10, 4)
	if !ChooseY(big, small) {
		t.Error("should suggest swapping when X is larger")
	}
	if ChooseY(small, big) {
		t.Error("should not suggest swapping when Y is larger")
	}
}

func TestFacadeIO(t *testing.T) {
	dir := t.TempDir()
	x := Random([]uint64{5, 5}, 12, 5)
	tns := filepath.Join(dir, "x.tns")
	bin := filepath.Join(dir, "x.bin")
	if err := x.SaveTNS(tns); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveBin(bin); err != nil {
		t.Fatal(err)
	}
	a, err := LoadTNS(tns)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadBin(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(x) || !b.Equal(x) {
		t.Fatal("facade IO round trip mismatch")
	}
	if _, err := ReadTNS(strings.NewReader("2\n2 2\n1 1 1\n")); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGenerators(t *testing.T) {
	p, err := FindPreset("Uber")
	if err != nil {
		t.Fatal(err)
	}
	ten := GeneratePreset(p, 1000, 6)
	if ten.NNZ() == 0 {
		t.Fatal("preset generation empty")
	}
	if RandomSkewed([]uint64{100}, 200, 2.0, 7).NNZ() == 0 {
		t.Fatal("skewed generation empty")
	}
	if len(Presets) != 8 {
		t.Fatalf("Presets = %d", len(Presets))
	}
}

func TestFacadeBlockSparse(t *testing.T) {
	bt, err := NewBlockTensor([][]uint64{{2, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.SetBlock([]uint32{0, 0}, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	z, err := BlockContract(bt, bt, []int{1}, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if z.NumBlocks() == 0 {
		t.Fatal("block contraction empty")
	}
	x, y, spec, err := Hubbard(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ(HubbardCutoff) == 0 || y.NNZ(HubbardCutoff) == 0 || spec.ID != 1 {
		t.Fatal("Hubbard wrapper broken")
	}
}

func TestFacadeHetmem(t *testing.T) {
	x := Random([]uint64{20, 15, 10}, 400, 8)
	y := Random([]uint64{10, 12}, 60, 9)
	z, rep, err := Contract(x, y, []int{2}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	pf := ProfileFromReport(rep, x.Order(), y.Order(), z.Order())
	if pf.PeakBytes() == 0 {
		t.Fatal("empty profile")
	}
	pols := MemPolicies()
	if len(pols) != 5 {
		t.Fatalf("MemPolicies = %d", len(pols))
	}
	for _, pol := range pols {
		r := pol.Evaluate(pf, pf.PeakBytes()/2)
		if r.Total <= 0 {
			t.Fatalf("%s: non-positive simulated time", pol.Name())
		}
	}
}

func TestFacadeTwoPhase(t *testing.T) {
	x := Random([]uint64{12, 10}, 50, 22)
	y := Random([]uint64{10, 9}, 50, 23)
	a, _, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgSparta})
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := Contract(x, y, []int{1}, []int{0}, Options{Algorithm: AlgTwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("two-phase facade result differs")
	}
	if rep.Symbolic <= 0 {
		t.Fatal("symbolic time not reported")
	}
}

func TestWorkloadAlias(t *testing.T) {
	p, _ := FindPreset("Chicago")
	w := Workload{Preset: p, Modes: 2}
	cx, cy := w.ContractModes()
	if len(cx) != 2 || len(cy) != 2 {
		t.Fatal("workload alias broken")
	}
}
