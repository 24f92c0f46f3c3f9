package engine

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dense"
	"sparta/internal/obs"
)

func randomSparse(dims []uint64, nnz int, seed int64) *coo.Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := coo.MustNew(dims, nnz)
	idx := make([]uint32, len(dims))
	for i := 0; i < nnz; i++ {
		for m, d := range dims {
			idx[m] = uint32(rng.Intn(int(d)))
		}
		t.Append(idx, rng.NormFloat64())
	}
	t.Sort(1)
	t.Dedup()
	return t
}

// diffCase is one randomized contraction configuration.
type diffCase struct {
	xd, yd           []uint64
	cmodesX, cmodesY []int
	nnzX, nnzY       int
	seed             int64
}

// randomCase draws a contraction with X/Y orders in [2,5] and 1..min(order)
// contracted mode pairs; paired dims match by construction.
func randomCase(rng *rand.Rand, trial int) diffCase {
	orderX := 2 + rng.Intn(4)
	orderY := 2 + rng.Intn(4)
	nc := 1 + rng.Intn(min(orderX, orderY))
	xd := make([]uint64, orderX)
	for m := range xd {
		xd[m] = uint64(2 + rng.Intn(6))
	}
	yd := make([]uint64, orderY)
	for m := range yd {
		yd[m] = uint64(2 + rng.Intn(6))
	}
	cx := rng.Perm(orderX)[:nc]
	cy := rng.Perm(orderY)[:nc]
	for k := range cx {
		yd[cy[k]] = xd[cx[k]]
	}
	return diffCase{
		xd: xd, yd: yd, cmodesX: cx, cmodesY: cy,
		nnzX: 20 + rng.Intn(120), nnzY: 20 + rng.Intn(120),
		seed: int64(1000 + trial),
	}
}

// TestPreparedDiff is the main equivalence sweep: ~200 randomized
// contractions across orders 2-5 and 1/4/8 threads. The
// prepared path must be bitwise identical to the one-shot Contract, and
// both must match the dense einsum oracle within accumulation tolerance.
func TestPreparedDiff(t *testing.T) {
	trials := 68 // x3 thread counts = 204 configurations
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		c := randomCase(rng, trial)
		x := randomSparse(c.xd, c.nnzX, c.seed)
		y := randomSparse(c.yd, c.nnzY, c.seed+500)

		// Dense oracle once per case (thread-independent).
		dx, err := dense.FromCOO(x, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := dense.FromCOO(y, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dense.Contract(dx, dy, c.cmodesX, c.cmodesY, 1<<22)
		if err != nil {
			t.Fatal(err)
		}

		for _, threads := range []int{1, 4, 8} {
			opt := core.Options{Algorithm: core.AlgSparta, Threads: threads}

			zRef, _, err := core.ContractCtx(ctx, x, y, c.cmodesX, c.cmodesY, opt)
			if err != nil {
				t.Fatalf("trial %d t=%d: one-shot: %v", trial, threads, err)
			}
			pr, err := core.PrepareY(y, c.cmodesY, opt)
			if err != nil {
				t.Fatalf("trial %d t=%d: prepare: %v", trial, threads, err)
			}
			zPrep, rep, err := pr.Contract(ctx, x, c.cmodesX, opt)
			if err != nil {
				t.Fatalf("trial %d t=%d: prepared: %v", trial, threads, err)
			}
			if !zPrep.Equal(zRef) {
				t.Fatalf("trial %d t=%d: prepared output differs from one-shot (case %+v)",
					trial, threads, c)
			}
			if rep.HtYReused {
				t.Errorf("trial %d: first prepared use claims HtYReused", trial)
			}

			// Second use of the same plan: warm, still identical.
			zWarm, repWarm, err := pr.Contract(ctx, x, c.cmodesX, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !zWarm.Equal(zRef) {
				t.Fatalf("trial %d t=%d: warm prepared output differs", trial, threads)
			}
			if !repWarm.HtYReused || repWarm.HtYBuild != 0 {
				t.Errorf("trial %d: warm use not reported as reuse (%+v)", trial, repWarm.HtYReused)
			}

			got, err := dense.FromCOO(zRef, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := dense.MaxAbsDiff(got, want)
			if err != nil {
				t.Fatalf("trial %d: oracle shape mismatch: Z dims %v", trial, zRef.Dims)
			}
			if diff > 1e-9 {
				t.Fatalf("trial %d t=%d: max diff vs dense oracle %g", trial, threads, diff)
			}
		}
	}
}

// TestEngineWarmSkipsBuild asserts the acceptance criterion directly: a
// warm engine contraction reports HtYReused, emits no "hty build" stage
// span, and returns the bitwise-identical tensor.
func TestEngineWarmSkipsBuild(t *testing.T) {
	x := randomSparse([]uint64{9, 7, 6}, 150, 1)
	y := randomSparse([]uint64{6, 8, 5}, 120, 2)
	eng := New(Config{})
	ctx := context.Background()

	coldTr := obs.NewTracer()
	opt := core.Options{Algorithm: core.AlgSparta, Tracer: coldTr}
	zCold, repCold, err := eng.Contract(ctx, x, y, []int{2}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if repCold.HtYReused {
		t.Error("cold contraction claims HtYReused")
	}
	if !traceHas(t, coldTr, "hty build") {
		t.Error(`cold trace lacks the "hty build" span`)
	}

	warmTr := obs.NewTracer()
	opt.Tracer = warmTr
	zWarm, repWarm, err := eng.Contract(ctx, x, y, []int{2}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !repWarm.HtYReused || repWarm.HtYBuild != 0 {
		t.Errorf("warm contraction not reported as reuse: reused=%v build=%v",
			repWarm.HtYReused, repWarm.HtYBuild)
	}
	if traceHas(t, warmTr, "hty build") {
		t.Error(`warm trace still contains the "hty build" span`)
	}
	if !zWarm.Equal(zCold) {
		t.Error("warm output not bitwise identical to cold")
	}
	if s := eng.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestContractXScansNeitherInput: the entry for a caller that keeps its
// operands prepared. ContractX on a kept PreparedX with a known fingerprint
// of Y is bitwise Contract, opens neither an "x sort" nor an "hty build" span
// once both halves are warm, and trusts the fingerprint it is handed — a
// planted one keys the plan, which is the proof that Y was not hashed again.
// The zero fingerprint means "compute it", so the wrappers stay safe against
// mutated tensors.
func TestContractXScansNeitherInput(t *testing.T) {
	ctx := context.Background()
	x := randomSparse([]uint64{9, 7, 6}, 150, 3)
	y := randomSparse([]uint64{9, 8, 5}, 120, 4)
	cx, cy := []int{0}, []int{0}
	opt := core.Options{Threads: 2}
	eng := New(Config{})
	want, _, err := eng.Contract(ctx, x, y, cx, cy, opt)
	if err != nil {
		t.Fatal(err)
	}

	px, err := core.PrepareX(ctx, x, cx, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintTensor(y, 1)
	for use := 1; use <= 2; use++ {
		tr := obs.NewTracer()
		o := opt
		o.Tracer = tr
		z, rep, err := eng.ContractX(ctx, px, y, fp, cy, o)
		if err != nil {
			t.Fatal(err)
		}
		if !z.Equal(want) || !rep.HtYReused || rep.XPrepared != (use == 2) {
			t.Errorf("use %d: equal %v, HtYReused %v, XPrepared %v", use, z.Equal(want), rep.HtYReused, rep.XPrepared)
		}
		if traceHas(t, tr, "x sort") || traceHas(t, tr, "hty build") {
			t.Errorf("use %d: a contraction on prepared operands opened a stage-① span", use)
		}
	}
	if s := eng.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v: the known fingerprint should find the plan Contract cached", s)
	}

	planted := Fingerprint{Hi: 1, Lo: 2}
	if _, hit, err := eng.PrepareFP(ctx, y, planted, cy, opt); err != nil || hit {
		t.Fatalf("planted fingerprint: hit %v, %v", hit, err)
	}
	if _, hit, err := eng.PrepareFP(ctx, y, planted, cy, opt); err != nil || !hit {
		t.Fatalf("planted fingerprint, second lookup: hit %v, %v (Y was fingerprinted again)", hit, err)
	}
	if _, hit, err := eng.PrepareFP(ctx, y, Fingerprint{}, cy, opt); err != nil || !hit {
		t.Fatalf("zero fingerprint: hit %v, %v, want the plan stored under Y's own", hit, err)
	}

	// The baselines have no prepared form: ContractX refuses them, as
	// PreparedY.ContractX does, without touching the plan cache.
	before := eng.Stats()
	if _, _, err := eng.ContractX(ctx, px, y, fp, cy, core.Options{Algorithm: core.AlgSPA, Threads: 2}); err == nil {
		t.Error("baseline algorithm accepted by ContractX")
	}
	if s := eng.Stats(); s != before {
		t.Errorf("a refused baseline looked up a plan: stats %+v -> %+v", before, s)
	}
	if _, _, err := eng.ContractX(ctx, nil, y, fp, cy, opt); err == nil {
		t.Error("nil PreparedX accepted")
	}
}

func traceHas(t *testing.T, tr *obs.Tracer, name string) bool {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(buf.String(), name)
}

// TestMetamorphicModePermutation: permuting X's modes (remapping the
// contract pairing accordingly) must not change the prepared-path result.
func TestMetamorphicModePermutation(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		x := randomSparse([]uint64{5, 6, 4, 3}, 80, int64(600+trial))
		y := randomSparse([]uint64{4, 3, 7}, 50, int64(700+trial))
		opt := core.Options{Algorithm: core.AlgSparta, Threads: 1 + rng.Intn(4)}

		pr, err := core.PrepareY(y, []int{0, 1}, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := pr.Contract(ctx, x, []int{2, 3}, opt)
		if err != nil {
			t.Fatal(err)
		}

		// Swap X's contract modes 2 and 3 and the pairing with them; the
		// same prepared Y must serve both phrasings.
		xp := x.Clone()
		if err := xp.Permute([]int{0, 1, 3, 2}); err != nil {
			t.Fatal(err)
		}
		pr2, err := core.PrepareY(y, []int{0, 1}, opt)
		if err != nil {
			t.Fatal(err)
		}
		z2, _, err := pr2.Contract(ctx, xp, []int{3, 2}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(ref, z2) {
			t.Fatalf("trial %d: X mode permutation changed the prepared result", trial)
		}
	}
}

// TestMetamorphicScalarLinearity: Contract(aX, Y) == a*Contract(X, Y).
func TestMetamorphicScalarLinearity(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		x := randomSparse([]uint64{8, 6, 5}, 90, int64(800+trial))
		y := randomSparse([]uint64{5, 7}, 40, int64(900+trial))
		opt := core.Options{Algorithm: core.AlgSparta, Threads: 4}
		pr, err := core.PrepareY(y, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := pr.Contract(ctx, x, []int{2}, opt)
		if err != nil {
			t.Fatal(err)
		}
		const alpha = 3.0
		xs := x.Clone()
		xs.Scale(alpha)
		zs, _, err := pr.Contract(ctx, xs, []int{2}, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref.Scale(alpha)
		if !almostEqual(ref, zs) {
			t.Fatalf("trial %d: scalar linearity violated", trial)
		}
	}
}

// almostEqual compares coordinates exactly and values to accumulation
// tolerance (metamorphic transforms reorder float additions).
func almostEqual(a, b *coo.Tensor) bool {
	if a.NNZ() != b.NNZ() || len(a.Dims) != len(b.Dims) {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
		for i := range a.Inds[m] {
			if a.Inds[m][i] != b.Inds[m][i] {
				return false
			}
		}
	}
	for i := range a.Vals {
		if math.Abs(a.Vals[i]-b.Vals[i]) > 1e-9*math.Max(1, math.Abs(a.Vals[i])) {
			return false
		}
	}
	return true
}
