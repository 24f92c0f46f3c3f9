package bench

import (
	"fmt"
	"io"

	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/stats"
)

// Duel prints a stage-by-stage comparison of the four algorithms on one
// workload — the diagnostic view behind Figures 2 and 4 (which stages each
// data-structure choice actually buys back).
func Duel(w io.Writer, c Config) error {
	wl := gen.Workload{Preset: mustPreset("NIPS"), Modes: 1}
	fmt.Fprintf(w, "Stage-by-stage duel on %s (nnz %d)\n", wl.Name(), c.Scale)
	tab := stats.NewTable("Algorithm", "Input", "Search", "Accum", "Write", "Sort", "Total", "Products", "AccumProbes")
	var sparta *core.Report // the last row's, for its HtY build walls
	for _, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgTwoPhase, core.AlgSparta} {
		_, rep, err := c.RunWorkload(wl, alg)
		if err != nil {
			return err
		}
		sparta = rep
		tab.Row(alg.String(),
			rep.StageWall[core.StageInput], rep.StageWall[core.StageSearch],
			rep.StageWall[core.StageAccum], rep.StageWall[core.StageWrite],
			rep.StageWall[core.StageSort], rep.Total(),
			rep.Products, rep.ProbesHtA+rep.SPACompares)
	}
	tab.Render(w)
	bw := sparta.HtYBuildWalls
	if bw.Direct {
		fmt.Fprintf(w, "%s HtY build %v (%s): histograms %v, prefix sum %v, scatter %v\n",
			core.AlgSparta, sparta.HtYBuild, htyArm(true), bw.Encode, bw.Group, bw.PackFill)
		return nil
	}
	fmt.Fprintf(w, "%s HtY build %v (%s): encode %v, sort %v, group scans %v, pack beside fill %v (fill alone %v)\n",
		core.AlgSparta, sparta.HtYBuild, htyArm(false), bw.Encode, bw.Sort, bw.Group, bw.PackFill, bw.Fill)
	return nil
}
