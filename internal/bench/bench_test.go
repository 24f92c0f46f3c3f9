package bench

import (
	"io"
	"slices"
	"strings"
	"testing"

	"sparta/internal/core"
	"sparta/internal/gen"
)

// tinyConfig keeps every experiment fast enough for the unit-test suite.
func tinyConfig() Config {
	return Config{Scale: 600, Threads: 2, Seed: 7, DRAMFraction: 0.5}
}

func TestTensorCache(t *testing.T) {
	c := tinyConfig()
	p := mustPreset("Uber")
	a := c.Tensor(p)
	b := c.Tensor(p)
	if a != b {
		t.Fatal("tensor cache miss for identical config")
	}
	c2 := c
	c2.Seed = 8
	if c2.Tensor(p) == a {
		t.Fatal("different seed shared a cached tensor")
	}
}

func TestRunWorkloadAllAlgorithms(t *testing.T) {
	c := tinyConfig()
	wl := gen.Workload{Preset: mustPreset("Chicago"), Modes: 2}
	for _, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgSparta} {
		z, rep, err := c.RunWorkload(wl, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if z.NNZ() == 0 || rep.NNZZ != z.NNZ() {
			t.Fatalf("%v: bad result", alg)
		}
	}
}

// TestExperimentsRunEndToEnd executes every experiment at tiny scale and
// checks it produces output without error — the harness equivalent of an
// integration test.
func TestExperimentsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	c := tinyConfig()
	exps := map[string]func(io.Writer, Config) error{
		"fig2":     Fig2,
		"table2":   Table2,
		"fig3":     Fig3,
		"fig4":     Fig4,
		"fig6":     Fig6,
		"fig7":     Fig7,
		"fig8":     Fig8,
		"fig9":     Fig9,
		"duel":     Duel,
		"twophase": TwoPhase,
		"search":   SearchAblation,
	}
	for name, f := range exps {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			if err := f(&b, c); err != nil {
				t.Fatal(err)
			}
			if len(b.String()) < 40 {
				t.Fatalf("suspiciously short output: %q", b.String())
			}
		})
	}
}

func TestHeadlineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var b strings.Builder
	if err := Headline(&b, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Sparta over SpTC-SPA") {
		t.Fatalf("missing headline: %s", b.String())
	}
}

func TestFig5AndTable4Run(t *testing.T) {
	if testing.Short() {
		t.Skip("Hubbard generation is slow")
	}
	var b strings.Builder
	if err := Table4(&b, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "SpTC10") {
		t.Fatal("Table 4 missing rows")
	}
	b.Reset()
	if err := Fig5(&b, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "average speedup") {
		t.Fatal("Fig 5 missing summary")
	}
}

func TestScalingAndAblationRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var b strings.Builder
	if err := Scaling(&b, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Speedup") {
		t.Fatal("scaling output missing")
	}
	b.Reset()
	if err := Ablation(&b, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Ablation 1", "Ablation 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in ablation output", want)
		}
	}
}

func TestScalingLadder(t *testing.T) {
	for _, tc := range []struct {
		scale int
		want  []int
	}{
		{8000, []int{1000, 2000, 4000, 8000}},
		{600, []int{75, 150, 300, 600}},
		{4, []int{1, 1, 2, 4}},
		{0, []int{1, 1, 1, 1}},
	} {
		if got := scalingLadder(tc.scale); !slices.Equal(got, tc.want) {
			t.Errorf("scalingLadder(%d) = %v, want %v", tc.scale, got, tc.want)
		}
	}
}

func TestPermAndFreeModes(t *testing.T) {
	perm := permFor(4, []int{1, 3})
	want := []int{0, 2, 1, 3}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("permFor = %v", perm)
		}
	}
	fm := freeModes(4, []int{1, 3})
	if len(fm) != 2 || fm[0] != 0 || fm[1] != 2 {
		t.Fatalf("freeModes = %v", fm)
	}
}
