package gen

import (
	"math"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
)

func TestPresetsTable3(t *testing.T) {
	if len(Presets) != 8 {
		t.Fatalf("Table 3 has 8 tensors, got %d", len(Presets))
	}
	for _, p := range Presets {
		if p.NNZ <= 0 || len(p.Dims) < 3 {
			t.Errorf("%s: bad preset", p.Name)
		}
	}
	if _, err := FindPreset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
	p, err := FindPreset("Vast")
	if err != nil || len(p.Dims) != 5 {
		t.Errorf("Vast preset: %v %v", p, err)
	}
}

func TestGenerateScalesAndDeterministic(t *testing.T) {
	p, _ := FindPreset("Chicago")
	a := Generate(p, 5000, 7)
	b := Generate(p, 5000, 7)
	if !a.Equal(b) {
		t.Fatal("generator not deterministic")
	}
	if a.NNZ() < 4000 || a.NNZ() > 5000 {
		t.Fatalf("nnz = %d, want ~5000", a.NNZ())
	}
	if !a.IsSorted() {
		t.Fatal("generated tensor not sorted")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// No duplicate coordinates after dedup.
	for i := 1; i < a.NNZ(); i++ {
		if a.Compare(i-1, i) == 0 {
			t.Fatal("duplicate coordinate survived")
		}
	}
	c := Generate(p, 5000, 8)
	if a.Equal(c) {
		t.Fatal("different seeds gave identical tensors")
	}
}

func TestGenerateKeepsDensityRegime(t *testing.T) {
	p, _ := FindPreset("Uracil")
	a := Generate(p, 20000, 1)
	card := 1.0
	for _, d := range a.Dims {
		card *= float64(d)
	}
	density := float64(a.NNZ()) / card
	// Uracil's density is 4.2e-2; scaled version must stay within ~4x.
	if density < p.Density/4 || density > p.Density*4 {
		t.Fatalf("density %.3g, preset %.3g", density, p.Density)
	}
}

func TestWorkloadContractModes(t *testing.T) {
	p, _ := FindPreset("Chicago") // order 4
	w := Workload{Preset: p, Modes: 2}
	cx, cy := w.ContractModes()
	if len(cx) != 2 || cx[0] != 2 || cx[1] != 3 {
		t.Fatalf("trailing modes = %v", cx)
	}
	ws := Workload{Preset: p, Modes: 2, Star: true}
	sx, _ := ws.ContractModes()
	if sx[0] != 0 || sx[1] != 1 {
		t.Fatalf("starred leading modes = %v", sx)
	}
	if w.Name() != "Chicago 2-Mode" || ws.Name() != "Chicago* 2-Mode" {
		t.Fatalf("names: %q %q", w.Name(), ws.Name())
	}
	_ = cy
	// Modes capped at order-1 so at least one free mode remains.
	w4 := Workload{Preset: p, Modes: 9}
	cx4, _ := w4.ContractModes()
	if len(cx4) != 3 {
		t.Fatalf("capped modes = %v", cx4)
	}
}

func TestFig4AndFig7Workloads(t *testing.T) {
	if got := len(Fig4Workloads()); got != 15 {
		t.Fatalf("Fig4 has %d workloads, want 15", got)
	}
	if got := len(Fig7Workloads()); got != 15 {
		t.Fatalf("Fig7 has %d workloads, want 15", got)
	}
}

// TestWorkloadRunsEndToEnd generates a small workload and contracts it with
// all three algorithms, checking agreement.
func TestWorkloadRunsEndToEnd(t *testing.T) {
	p, _ := FindPreset("Uber")
	x := Generate(p, 1500, 3)
	w := Workload{Preset: p, Modes: 2}
	cx, cy := w.ContractModes()
	var ref *coo.Tensor
	for _, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgSparta} {
		z, rep, err := core.Contract(x, x, cx, cy, core.Options{Algorithm: alg, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if rep.NNZZ == 0 {
			t.Fatalf("%v: empty result for a self-contraction", alg)
		}
		if ref == nil {
			ref = z
			continue
		}
		if z.NNZ() != ref.NNZ() {
			t.Fatalf("%v: nnz %d vs %d", alg, z.NNZ(), ref.NNZ())
		}
		for i := 0; i < z.NNZ(); i++ {
			d := z.Vals[i] - ref.Vals[i]
			if d < -1e-6 || d > 1e-6 {
				t.Fatalf("%v: value mismatch at %d", alg, i)
			}
		}
	}
}

func TestHubbardSpecsTable4(t *testing.T) {
	if len(HubbardSpecs) != 10 {
		t.Fatalf("Table 4 has 10 rows, got %d", len(HubbardSpecs))
	}
	for _, s := range HubbardSpecs {
		if len(s.XDims) != 5 || len(s.YDims) != 4 {
			t.Errorf("SpTC%d: orders wrong", s.ID)
		}
		for k := range s.CModesX {
			if s.XDims[s.CModesX[k]] != s.YDims[s.CModesY[k]] {
				t.Errorf("SpTC%d: contract pair %d dims %d vs %d", s.ID, k,
					s.XDims[s.CModesX[k]], s.YDims[s.CModesY[k]])
			}
		}
	}
	if _, _, _, err := Hubbard(0, 0, 1); err == nil {
		t.Error("id 0 accepted")
	}
	if _, _, _, err := Hubbard(11, 0, 1); err == nil {
		t.Error("id 11 accepted")
	}
}

func TestHubbardGeneration(t *testing.T) {
	x, y, spec, err := Hubbard(1, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Block counts are capped by the uniform partition's sector-tuple
	// space; they must never exceed the table and must be substantial.
	if x.NumBlocks() > spec.XBlocks || x.NumBlocks() < spec.XBlocks/2 {
		t.Fatalf("X blocks = %d, target %d", x.NumBlocks(), spec.XBlocks)
	}
	if y.NumBlocks() == 0 || y.NumBlocks() > spec.YBlocks {
		t.Fatalf("Y blocks = %d, target %d", y.NumBlocks(), spec.YBlocks)
	}
	xd := x.Dims()
	for m := range xd {
		if xd[m] != spec.XDims[m] {
			t.Fatalf("X dims = %v", xd)
		}
	}
	// The mechanism Fig. 5 relies on: only a small fraction of the dense
	// block elements survive the cutoff (element-wise sparsity inside
	// blocks), and the absolute count is near the table's target scaled
	// by the realized block coverage.
	nnz := x.NNZ(HubbardCutoff)
	fill := float64(nnz) / float64(x.DenseElems())
	if fill > 0.05 {
		t.Fatalf("in-block fill %.3f, want < 5%%", fill)
	}
	want := spec.XNNZ
	if nnz < want/2 || nnz > want*3/2 {
		t.Fatalf("X nnz = %d, want within 50%% of %d", nnz, want)
	}
	// Deterministic.
	x2, _, _, _ := Hubbard(1, 0, 42)
	if x2.NNZ(HubbardCutoff) != nnz {
		t.Fatal("Hubbard generation not deterministic")
	}
}

// TestHubbardScaled checks that a scale below the table's XNNZ shrinks X's
// block count and non-zeros in proportion while keeping dims and the
// in-block fill of the full-size pair, and that a scale at or above XNNZ is
// the full-size pair itself.
func TestHubbardScaled(t *testing.T) {
	full, _, spec, err := Hubbard(1, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	small, y, _, err := Hubbard(1, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	xd := small.Dims()
	for m := range xd {
		if xd[m] != spec.XDims[m] {
			t.Fatalf("scaled X dims = %v", xd)
		}
	}
	frac := 2000 / float64(spec.XNNZ)
	if want := frac * float64(full.NumBlocks()); math.Abs(float64(small.NumBlocks())-want) > 1 {
		t.Fatalf("scaled X blocks = %d, want %.1f", small.NumBlocks(), want)
	}
	if nnz := small.NNZ(HubbardCutoff); nnz < 1000 || nnz > 3000 {
		t.Fatalf("scaled X nnz = %d, want within 50%% of 2000", nnz)
	}
	fullFill := float64(full.NNZ(HubbardCutoff)) / float64(full.DenseElems())
	smallFill := float64(small.NNZ(HubbardCutoff)) / float64(small.DenseElems())
	if smallFill < fullFill/2 || smallFill > fullFill*2 {
		t.Fatalf("scaled in-block fill %.4f, full %.4f", smallFill, fullFill)
	}
	if y.NNZ(HubbardCutoff) == 0 || y.NumBlocks() > spec.YBlocks {
		t.Fatalf("Y scaled with X: %d blocks", y.NumBlocks())
	}
	same, _, _, err := Hubbard(1, spec.XNNZ, 42)
	if err != nil {
		t.Fatal(err)
	}
	if same.NumBlocks() != full.NumBlocks() || same.NNZ(HubbardCutoff) != full.NNZ(HubbardCutoff) {
		t.Fatal("scale = XNNZ differs from the full-size pair")
	}
}

func TestHubbardPartition(t *testing.T) {
	p := hubbardPartition(7)
	var sum uint64
	for _, s := range p {
		sum += s
	}
	if sum != 7 || len(p) != 2 {
		t.Fatalf("partition(7) = %v", p)
	}
	if len(hubbardPartition(129)) != 33 {
		t.Fatalf("partition(129) = %v", hubbardPartition(129))
	}
}

func TestRandomSkewedSkews(t *testing.T) {
	// With alpha >> 1, mass concentrates at low indices.
	skew := RandomSkewed([]uint64{1000}, 3000, 3.0, 1)
	uni := RandomSkewed([]uint64{1000}, 3000, 1.0, 1)
	msk, mun := 0.0, 0.0
	for i := 0; i < skew.NNZ(); i++ {
		msk += float64(skew.Inds[0][i])
	}
	for i := 0; i < uni.NNZ(); i++ {
		mun += float64(uni.Inds[0][i])
	}
	if msk/float64(skew.NNZ()) >= mun/float64(uni.NNZ()) {
		t.Fatal("alpha=3 did not skew toward low indices")
	}
}
