package bench

import (
	"fmt"
	"io"
	"time"

	"sparta/internal/gen"
	"sparta/internal/hashtab"
	"sparta/internal/stats"
)

// Ablation exercises the design choices DESIGN.md calls out:
//
//  1. Y input processing: COO sort vs hash-table build — §3.3's claimed
//     input-processing win.
//  2. Accumulator: SPA vs HtA vs a plain Go map — §3.4's choice of a
//     custom table.
func Ablation(w io.Writer, c Config) error {
	p := mustPreset("NIPS")
	y := c.Tensor(p)
	wl := gen.Workload{Preset: p, Modes: 2}
	_, cy := wl.ContractModes()

	// --- 1. Y build: sort vs hash -------------------------------------
	fmt.Fprintln(w, "Ablation 1: Y input processing (sort vs COO-to-hashtable)")
	{
		tab := stats.NewTable("Approach", "Time")
		t0 := time.Now()
		ys := y.Clone()
		_ = ys.Permute(append(append([]int{}, cy...), freeModes(y.Order(), cy)...))
		ys.Sort(c.Threads)
		tab.Row("permute+sort (COOY)", time.Since(t0))

		radC, _ := y.RadixOf(cy)
		fmodes := freeModes(y.Order(), cy)
		radF, _ := y.RadixOf(fmodes)
		t0 = time.Now()
		hashtab.BuildHtYFlat(y, cy, fmodes, radC, radF, 0, c.Threads)
		tab.Row("COO-to-HtY build (sort-then-pack)", time.Since(t0))
		tab.Render(w)
	}

	// --- 2. Accumulator choice ----------------------------------------
	fmt.Fprintln(w, "\nAblation 2: accumulator microbenchmark (one large sub-tensor's adds)")
	{
		// Replay a realistic accumulation key stream: the products of the
		// first big contraction sub-tensor.
		keys := accumKeyStream(c, wl, 200000)
		tab := stats.NewTable("Accumulator", "Adds", "Time", "ns/add")
		// Tables are constructed outside the timed region: the contraction
		// reuses one accumulator per thread across all sub-tensors, so
		// construction is not part of the per-add cost being compared.
		hta := hashtab.NewHtAFlat(1024)
		t0 := time.Now()
		for _, k := range keys {
			hta.Add(k, 1)
		}
		dt := time.Since(t0)
		tab.Row("HtA (open addressing)", len(keys), dt, fmt.Sprintf("%.1f", float64(dt.Nanoseconds())/float64(len(keys))))

		m := make(map[uint64]float64, 1024)
		t0 = time.Now()
		for _, k := range keys {
			m[k] += 1
		}
		dt = time.Since(t0)
		tab.Row("Go map", len(keys), dt, fmt.Sprintf("%.1f", float64(dt.Nanoseconds())/float64(len(keys))))

		// SPA on the same stream (LN keys as 1-wide tuples); cap the adds
		// so the O(n^2) baseline finishes.
		spaKeys := keys
		if len(spaKeys) > 20000 {
			spaKeys = spaKeys[:20000]
		}
		t0 = time.Now()
		sp := newSPA1()
		for _, k := range spaKeys {
			sp.add(uint32(k), 1)
		}
		dt = time.Since(t0)
		tab.Row("SPA (linear scan)", len(spaKeys), dt, fmt.Sprintf("%.1f", float64(dt.Nanoseconds())/float64(len(spaKeys))))
		tab.Render(w)
	}
	return nil
}

// accumKeyStream extracts the HtA key stream of a workload's largest
// sub-tensor by re-running the products.
func accumKeyStream(c Config, wl gen.Workload, cap int) []uint64 {
	x := c.Tensor(wl.Preset)
	cx, cy := wl.ContractModes()
	fmodes := freeModes(x.Order(), cy)
	radC, _ := x.RadixOf(cx)
	radF, _ := x.RadixOf(fmodes)
	hty := hashtab.BuildHtYFlat(x, cy, fmodes, radC, radF, 0, c.Threads)
	xs := x.Clone()
	_ = xs.Permute(permFor(x.Order(), cx))
	xs.Sort(c.Threads)
	nfx := x.Order() - len(cx)
	cCols := xs.Inds[nfx:]
	keys := make([]uint64, 0, cap)
	for i := 0; i < xs.NNZ() && len(keys) < cap; i++ {
		items, _ := hty.Lookup(radC.EncodeStrided(cCols, i))
		for _, it := range items {
			if len(keys) == cap {
				break
			}
			keys = append(keys, it.LNFree)
		}
	}
	return keys
}

// permFor builds the free-first (contract-last) permutation used for X.
func permFor(order int, cmodes []int) []int {
	in := make([]bool, order)
	for _, m := range cmodes {
		in[m] = true
	}
	var perm []int
	for m := 0; m < order; m++ {
		if !in[m] {
			perm = append(perm, m)
		}
	}
	return append(perm, cmodes...)
}

// freeModes lists the modes not in cmodes.
func freeModes(order int, cmodes []int) []int {
	in := make([]bool, order)
	for _, m := range cmodes {
		in[m] = true
	}
	var out []int
	for m := 0; m < order; m++ {
		if !in[m] {
			out = append(out, m)
		}
	}
	return out
}

// spa1 is a 1-wide SPA used by the accumulator ablation (package spa's
// tuple SPA with stride 1, inlined here to keep the hot loop comparable).
type spa1 struct {
	keys []uint32
	vals []float64
}

func newSPA1() *spa1 { return &spa1{} }

func (s *spa1) add(k uint32, v float64) {
	for i, kk := range s.keys {
		if kk == k {
			s.vals[i] += v
			return
		}
	}
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, v)
}
