package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sparta/internal/csf"
	"sparta/internal/gen"
	"sparta/internal/hashtab"
	"sparta/internal/stats"
)

// SearchAblation compares the four Y index-search structures §3.2/§3.3
// discuss for resolving X's contract tuples to Y sub-tensors:
//
//   - COO linear scan over distinct contract-key runs (Algorithm 1)
//   - COO binary search over the same runs (a stronger baseline than the
//     paper's, included for completeness)
//   - CSF per-level binary search (the format the paper declines, §3.2)
//   - HtY with LN keys (Sparta, §3.3): a hash probe, or a direct index
//     when the contract-key space is small and Y fills it
//
// The query stream is the real one: the contract tuples of X in sorted-X
// order.
func SearchAblation(w io.Writer, c Config) error {
	p := mustPreset("NIPS")
	y := c.Tensor(p)
	wl := gen.Workload{Preset: p, Modes: 2}
	cx, cy := wl.ContractModes()

	// Sorted, contract-leading copy of Y for the COO and CSF searches.
	ys := y.Clone()
	if err := ys.Permute(append(append([]int{}, cy...), freeModes(y.Order(), cy)...)); err != nil {
		return err
	}
	ys.Sort(c.Threads)
	ys.Dedup()
	ptrCY, err := ys.SubPtr(len(cy))
	if err != nil {
		return err
	}
	cs, err := csf.FromCOO(ys)
	if err != nil {
		return err
	}
	fmodes := freeModes(y.Order(), cy)
	radC, err := y.RadixOf(cy)
	if err != nil {
		return err
	}
	radF, err := y.RadixOf(fmodes)
	if err != nil {
		return err
	}
	hty := hashtab.BuildHtYFlat(y, cy, fmodes, radC, radF, 0, c.Threads)

	// Query stream: X's contract tuples in sorted order.
	xs := c.Tensor(p).Clone()
	if err := xs.Permute(permFor(xs.Order(), cx)); err != nil {
		return err
	}
	xs.Sort(c.Threads)
	nfx := xs.Order() - len(cx)
	cCols := xs.Inds[nfx:]
	nq := xs.NNZ()
	ncm := len(cy)

	fmt.Fprintln(w, "Ablation 3: Y index-search structures (query stream = X contract tuples)")
	tab := stats.NewTable("Structure", "Queries", "Hits", "Time", "ns/query")

	var hits int
	run := func(name string, f func(i int) bool) {
		hits = 0
		t0 := time.Now()
		for i := 0; i < nq; i++ {
			if f(i) {
				hits++
			}
		}
		dt := time.Since(t0)
		tab.Row(name, nq, hits, dt, fmt.Sprintf("%.1f", float64(dt.Nanoseconds())/float64(nq)))
	}

	cmpAt := func(pos int, i int) int {
		for m := 0; m < ncm; m++ {
			a, b := ys.Inds[m][pos], cCols[m][i]
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	run("COO linear (SpTC-SPA)", func(i int) bool {
		for r := 0; r+1 < len(ptrCY); r++ {
			switch cmpAt(ptrCY[r], i) {
			case 0:
				return true
			case 1:
				return false
			}
		}
		return false
	})
	run("COO binary search", func(i int) bool {
		k := sort.Search(len(ptrCY)-1, func(r int) bool { return cmpAt(ptrCY[r], i) >= 0 })
		return k < len(ptrCY)-1 && cmpAt(ptrCY[k], i) == 0
	})
	prefix := make([]uint32, ncm)
	run("CSF per-level search", func(i int) bool {
		for m := 0; m < ncm; m++ {
			prefix[m] = cCols[m][i]
		}
		_, _, _, ok := cs.LookupPrefix(prefix)
		return ok
	})
	run(fmt.Sprintf("HtY %s (Sparta)", htyArm(hty.Walls.Direct)), func(i int) bool {
		items, _ := hty.Lookup(radC.EncodeStrided(cCols, i))
		return items != nil
	})
	tab.Render(w)
	fmt.Fprintf(w, "footprints: COO %s, CSF %s, HtY %s\n",
		stats.FormatBytes(ys.Bytes()), stats.FormatBytes(cs.Bytes()), stats.FormatBytes(hty.Bytes()))
	return nil
}

// htyArm names the index arm an HtY took (DESIGN.md §9.5).
func htyArm(direct bool) string {
	if direct {
		return "direct index (CSR over LN keys)"
	}
	return "hash probe with LN keys"
}
