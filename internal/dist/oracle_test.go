package dist

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

// The oracle suite: sharded scatter/gather must be bitwise identical to the
// single-process contraction — same thread count, any shard count. Free-mode
// partitioning makes the per-shard output runs disjoint, so
// the merge never re-sums floats across shards and the equality is exact
// (tensor Equal + content fingerprint), not approximate.

// contractCase is one randomized contraction shape.
type contractCase struct {
	x, y   *coo.Tensor
	cx, cy []int
	label  string
}

// randomContractCase draws a contraction with X of the given order: 1..order-1
// contract modes at random positions, Y carrying the matched contract dims
// plus 0–2 free modes, dims 3–9, dense enough for accumulator collisions.
func randomContractCase(rng *rand.Rand, order int, seed int64) contractCase {
	k := 1 + rng.Intn(order-1)
	fy := rng.Intn(3)
	if k+fy > 5 {
		fy = 5 - k
	}
	oy := k + fy
	if oy < 1 {
		oy = 1
	}

	xdims := make([]uint64, order)
	for i := range xdims {
		xdims[i] = uint64(3 + rng.Intn(7))
	}
	cx := rng.Perm(order)[:k]
	cy := rng.Perm(oy)[:k]
	ydims := make([]uint64, oy)
	for i := range ydims {
		ydims[i] = uint64(3 + rng.Intn(7))
	}
	for j := range cx {
		ydims[cy[j]] = xdims[cx[j]]
	}

	x := gen.Random(xdims, 200+rng.Intn(600), seed)
	y := gen.Random(ydims, 100+rng.Intn(300), seed+1)
	return contractCase{
		x: x, y: y, cx: cx, cy: cy,
		label: fmt.Sprintf("x%v cx%v y%v cy%v", xdims, cx, ydims, cy),
	}
}

// localFleet builds a coordinator over S in-process shards.
func localFleet(t *testing.T, S int, cfg LocalConfig) *Coordinator {
	t.Helper()
	execs := make([]Executor, S)
	for i := range execs {
		execs[i] = NewLocal(fmt.Sprintf("shard-%d", i), cfg)
	}
	c, err := NewCoordinator(Config{Executors: execs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// oneshot is the oracle: single-process PrepareY + Contract with the exact
// same thread count as the sharded run under test.
func oneshot(t *testing.T, tc contractCase, opt core.Options) *coo.Tensor {
	t.Helper()
	pr, err := core.PrepareY(tc.y, tc.cy, opt)
	if err != nil {
		t.Fatalf("%s: oracle PrepareY: %v", tc.label, err)
	}
	z, _, err := pr.Contract(context.Background(), tc.x, tc.cx, opt)
	if err != nil {
		t.Fatalf("%s: oracle Contract: %v", tc.label, err)
	}
	return z
}

// requireIdentical asserts bitwise identity: structural Equal plus the
// engine's 128-bit content fingerprint (full coordinate + value coverage).
func requireIdentical(t *testing.T, label string, got, want *coo.Tensor) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: sharded output differs from oneshot (got nnz=%d, want nnz=%d)",
			label, got.NNZ(), want.NNZ())
	}
	gf, wf := engine.FingerprintTensor(got, 1), engine.FingerprintTensor(want, 1)
	if gf != wf {
		t.Fatalf("%s: fingerprint mismatch: got %s want %s", label, gf.String(), wf.String())
	}
}

// TestShardOracleSweep is the randomized property sweep from the issue:
// orders 2–5 × S ∈ {1,2,4,8} × several thread counts, merged
// sharded Z bitwise identical to the single-process contraction.
func TestShardOracleSweep(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	threadCounts := []int{1, 4, 8}
	casesPerOrder := 2
	if testing.Short() {
		threadCounts = []int{1, 4}
		casesPerOrder = 1
	}

	rng := rand.New(rand.NewSource(42))
	for order := 2; order <= 5; order++ {
		for cse := 0; cse < casesPerOrder; cse++ {
			tc := randomContractCase(rng, order, int64(1000*order+cse))
			for _, threads := range threadCounts {
				opt := core.Options{Algorithm: core.AlgSparta, Threads: threads}
				want := oneshot(t, tc, opt)
				for _, S := range shardCounts {
					name := fmt.Sprintf("order=%d case=%d threads=%d S=%d", order, cse, threads, S)
					c := localFleet(t, S, LocalConfig{})
					z, rep, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
					if err != nil {
						t.Fatalf("%s (%s): %v", name, tc.label, err)
					}
					requireIdentical(t, name+" ("+tc.label+")", z, want)
					if rep.Shards < 1 || rep.Shards > S {
						t.Fatalf("%s: report claims %d shards dispatched", name, rep.Shards)
					}
					if rep.NNZZ != z.NNZ() {
						t.Fatalf("%s: report NNZZ=%d, tensor has %d", name, rep.NNZZ, z.NNZ())
					}
				}
			}
		}
	}
}

// TestShardOraclePermutedOutput drives the spec path: Coordinator.Einsum must
// match engine.Einsum including the output permutation and re-sort.
func TestShardOraclePermutedOutput(t *testing.T) {
	specs := []struct {
		spec   string
		xd, yd []uint64
	}{
		{"ab,bc->ca", []uint64{40, 24}, []uint64{24, 32}},
		{"abc,cd->dba", []uint64{12, 10, 14}, []uint64{14, 9}},
		{"abcd,db->ca", []uint64{8, 7, 9, 6}, []uint64{6, 7}},
	}
	eng := engine.New(engine.Config{})
	for _, s := range specs {
		x := gen.Random(s.xd, 700, 11)
		y := gen.Random(s.yd, 350, 13)
		for _, S := range []int{1, 4} {
			opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
			want, _, err := eng.Einsum(context.Background(), s.spec, x, y, opt)
			if err != nil {
				t.Fatalf("%s: oracle: %v", s.spec, err)
			}
			c := localFleet(t, S, LocalConfig{})
			got, _, err := c.Einsum(context.Background(), s.spec, x, y, opt)
			if err != nil {
				t.Fatalf("%s S=%d: %v", s.spec, S, err)
			}
			requireIdentical(t, fmt.Sprintf("%s S=%d", s.spec, S), got, want)
		}
	}
}

// TestShardOracleStreamedTier runs every shard through the windowed streaming
// driver (the memory-pressure execution tier) and still demands bitwise
// identity with the in-memory oneshot.
func TestShardOracleStreamedTier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for order := 3; order <= 4; order++ {
		tc := randomContractCase(rng, order, int64(77*order))
		opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
		want := oneshot(t, tc, opt)
		for _, S := range []int{2, 4} {
			c := localFleet(t, S, LocalConfig{WindowNNZ: 64})
			z, rep, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
			if err != nil {
				t.Fatalf("streamed S=%d (%s): %v", S, tc.label, err)
			}
			requireIdentical(t, fmt.Sprintf("streamed S=%d (%s)", S, tc.label), z, want)
			if !rep.Streamed {
				t.Errorf("streamed S=%d: report does not mark the streamed tier", S)
			}
		}
	}
}

// TestShardOracleFullContraction pins the scalar edge: with every X mode
// contracted there is no free tuple to hash, so all of X lands on one shard
// and the result is the [1]-dim scalar tensor — still identical to oneshot.
func TestShardOracleFullContraction(t *testing.T) {
	x := gen.Random([]uint64{16, 12}, 150, 3)
	y := gen.Random([]uint64{16, 12}, 140, 4)
	tc := contractCase{x: x, y: y, cx: []int{0, 1}, cy: []int{0, 1}, label: "full contraction"}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	want := oneshot(t, tc, opt)
	c := localFleet(t, 4, LocalConfig{})
	z, rep, err := c.Contract(context.Background(), x, y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, tc.label, z, want)
	if rep.Shards != 1 {
		t.Errorf("full contraction dispatched %d shards, want 1 (empty free tuple has a single hash)", rep.Shards)
	}
}

// TestShardOracleStreamedFullContraction: a fully contracted shard on the
// streamed tier is one window of its prepared X, not an in-memory fallback,
// and still the oneshot scalar.
func TestShardOracleStreamedFullContraction(t *testing.T) {
	x := gen.Random([]uint64{16, 12}, 150, 3)
	y := gen.Random([]uint64{16, 12}, 140, 4)
	tc := contractCase{x: x, y: y, cx: []int{0, 1}, cy: []int{0, 1}, label: "streamed full contraction"}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	want := oneshot(t, tc, opt)
	c := localFleet(t, 4, LocalConfig{WindowNNZ: 16})
	z, rep, err := c.Contract(context.Background(), x, y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, tc.label, z, want)
	if !rep.Streamed || rep.Windows != 1 || rep.Shards != 1 {
		t.Errorf("streamed %v in %d windows on %d shards, want one window on one shard", rep.Streamed, rep.Windows, rep.Shards)
	}
}

// TestShardWarmPlanReuse: the second request through the same fleet must hit
// every shard's plan cache (HtYReused aggregates with AND across shards).
func TestShardWarmPlanReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tc := randomContractCase(rng, 3, 501)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	c := localFleet(t, 4, LocalConfig{})
	z1, rep1, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.HtYReused {
		t.Error("first request reports a warm HtY")
	}
	z2, rep2, err := c.Contract(context.Background(), tc.x, tc.y, tc.cx, tc.cy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.HtYReused {
		t.Error("second request through the same fleet did not reuse the shards' HtY plans")
	}
	requireIdentical(t, "warm vs cold", z2, z1)
}

// TestPartitionProperties checks the scatter pass directly: the partitions
// tile X (no loss, no duplication), rows keep their relative order within a
// shard (stable scatter), and every row sharing a free-mode tuple lands on
// the same shard — the invariant that makes the merged output exact.
func TestPartitionProperties(t *testing.T) {
	x := gen.Random([]uint64{24, 10, 18}, 3000, 21)
	cx := []int{1}
	free := []int{0, 2}
	for _, threads := range []int{1, 4} {
		ring, err := NewRing(ringNames(4), 0)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := Partition(x, cx, ring, threads)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range parts {
			total += p.NNZ()
		}
		if total != x.NNZ() {
			t.Fatalf("threads=%d: partitions hold %d nnz, input has %d", threads, total, x.NNZ())
		}

		// Recompute each row's owner and replay the scatter sequentially; a
		// stable partition must reproduce each shard's rows in order.
		cursor := make([]int, len(parts))
		tupleShard := make(map[[2]uint32]int)
		for i := 0; i < x.NNZ(); i++ {
			h := uint64(partitionSeed)
			for _, m := range free {
				h = mix64(h ^ uint64(x.Inds[m][i]))
			}
			s := ring.Owner(h)
			key := [2]uint32{x.Inds[0][i], x.Inds[2][i]}
			if prev, ok := tupleShard[key]; ok && prev != s {
				t.Fatalf("free tuple %v routed to both shard %d and %d", key, prev, s)
			}
			tupleShard[key] = s
			p, j := parts[s], cursor[s]
			if j >= p.NNZ() {
				t.Fatalf("threads=%d: shard %d ran out of rows at input row %d", threads, s, i)
			}
			for m := 0; m < x.Order(); m++ {
				if p.Inds[m][j] != x.Inds[m][i] {
					t.Fatalf("threads=%d: shard %d row %d is not input row %d (scatter not stable)", threads, s, j, i)
				}
			}
			if p.Vals[j] != x.Vals[i] {
				t.Fatalf("threads=%d: shard %d row %d carries the wrong value", threads, s, j)
			}
			cursor[s]++
		}
	}
}

// TestPartitionValidation rejects malformed mode lists.
func TestPartitionValidation(t *testing.T) {
	x := gen.Random([]uint64{8, 8}, 50, 1)
	ring, _ := NewRing(ringNames(2), 0)
	if _, err := Partition(x, []int{2}, ring, 1); err == nil {
		t.Error("out-of-range contract mode accepted")
	}
	if _, err := Partition(x, []int{0, 0}, ring, 1); err == nil {
		t.Error("duplicate contract mode accepted")
	}
	if _, err := Partition(x, []int{-1}, ring, 1); err == nil {
		t.Error("negative contract mode accepted")
	}
}
