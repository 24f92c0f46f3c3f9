package bench

import (
	"fmt"
	"io"

	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/stats"
)

// Scaling sweeps the dataset size and reports the Sparta-over-SpTC-SPA
// speedup at each scale. The paper's headline range (28–576×) is measured
// at full FROSTT scale (3–76 M non-zeros); the baseline's cost grows
// roughly quadratically in nnz while Sparta's grows linearly, so the
// speedup climbs with scale — this experiment makes that trend visible at
// laptop sizes and lets the reader extrapolate to the paper's operating
// point.
func Scaling(w io.Writer, c Config) error {
	fmt.Fprintln(w, "Scaling: Sparta speedup over SpTC-SPA vs dataset size")
	workloads := []gen.Workload{
		{Preset: mustPreset("Chicago"), Modes: 1},
		{Preset: mustPreset("NIPS"), Modes: 2},
		{Preset: mustPreset("Uracil"), Modes: 3},
	}
	tab := stats.NewTable("Workload", "nnz", "SpTC-SPA", "Sparta", "Speedup", "SPA search steps", "HtY probes")
	for _, wl := range workloads {
		for _, sc := range scalingLadder(c.Scale) {
			cfg := c
			cfg.Scale = sc
			_, repS, err := cfg.RunWorkload(wl, core.AlgSPA)
			if err != nil {
				return err
			}
			_, repH, err := cfg.RunWorkload(wl, core.AlgSparta)
			if err != nil {
				return err
			}
			tab.Row(wl.Name(), repS.NNZX, repS.Total(), repH.Total(),
				fmt.Sprintf("%.1fx", stats.Speedup(repS.Total(), repH.Total())),
				repS.SearchSteps+repS.SPACompares, repH.ProbesHtY)
		}
	}
	tab.Render(w)
	fmt.Fprintln(w, "(SPA search steps grow superlinearly in nnz; HtY probes stay ~ nnzX — the Eq. 3 vs Eq. 4 gap)")
	return nil
}

// scalingLadder is Scaling's dataset sizes: scale/8, /4, /2 and scale
// itself (-scale 8000 gives 1000…8000). Each is at least 1, because
// gen.Generate reads a target of 0 as the preset's full size.
func scalingLadder(scale int) []int {
	var ladder []int
	for _, div := range []int{8, 4, 2, 1} {
		ladder = append(ladder, max(1, scale/div))
	}
	return ladder
}
