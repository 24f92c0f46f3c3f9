package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sparta/internal/core"
	"sparta/internal/obs"
)

func prepFor(t *testing.T, seed int64, nnz int) *core.PreparedY {
	t.Helper()
	y := randomSparse([]uint64{8, 7, 6}, nnz, seed)
	pr, err := core.PrepareY(y, []int{0}, core.Options{Algorithm: core.AlgSparta, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func keyN(n uint64) planKey { return planKey{fp: Fingerprint{Hi: n, Lo: ^n}, modes: "0"} }

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU(2, 0)
	p1, p2, p3 := prepFor(t, 1, 100), prepFor(t, 2, 100), prepFor(t, 3, 100)
	c.add(keyN(1), p1)
	c.add(keyN(2), p2)
	if _, ok := c.get(keyN(1)); !ok { // promote 1; 2 becomes coldest
		t.Fatal("key 1 missing")
	}
	if _, ev := c.add(keyN(3), p3); ev != 1 {
		t.Fatalf("evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(keyN(2)); ok {
		t.Error("coldest entry (2) survived the eviction")
	}
	if _, ok := c.get(keyN(1)); !ok {
		t.Error("promoted entry (1) was evicted")
	}
	if _, ok := c.get(keyN(3)); !ok {
		t.Error("just-inserted entry (3) missing")
	}
}

func TestLRUFirstBuildWins(t *testing.T) {
	c := newLRU(4, 0)
	first, second := prepFor(t, 1, 100), prepFor(t, 1, 100)
	got, _ := c.add(keyN(9), first)
	if got != first {
		t.Fatal("first add did not return its own plan")
	}
	got, ev := c.add(keyN(9), second)
	if got != first || ev != 0 {
		t.Error("duplicate add replaced the resident plan")
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

func TestLRUByteBudget(t *testing.T) {
	p := prepFor(t, 1, 200)
	// Budget below two plans but above one: inserting a second must evict
	// the first; a single oversized plan must still be admitted.
	c := newLRU(10, p.Bytes()+p.Bytes()/2)
	c.add(keyN(1), p)
	c.add(keyN(2), prepFor(t, 2, 200))
	if c.len() != 1 {
		t.Fatalf("byte budget kept %d entries, want 1", c.len())
	}
	tiny := newLRU(10, 1) // budget below any plan
	tiny.add(keyN(3), p)
	if tiny.len() != 1 {
		t.Error("oversized single plan was refused")
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	eng := New(Config{CacheEntries: -1})
	y := randomSparse([]uint64{6, 5}, 80, 1)
	opt := core.Options{Algorithm: core.AlgSparta}
	for i := 0; i < 2; i++ {
		if _, hit, err := eng.PrepareCtx(context.Background(), y, []int{0}, opt); err != nil || hit {
			t.Fatalf("disabled cache: hit=%v err=%v", hit, err)
		}
	}
	if s := eng.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Errorf("disabled cache counted: %+v", s)
	}
}

// TestEngineKeySeparation: different mode specs must not share cache
// entries, while a byte-identical clone must hit, at any thread count.
func TestEngineKeySeparation(t *testing.T) {
	eng := New(Config{})
	y := randomSparse([]uint64{6, 5, 4}, 90, 1)
	base := core.Options{Algorithm: core.AlgSparta}

	if _, hit, err := eng.PrepareCtx(context.Background(), y, []int{0}, base); err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	if _, hit, _ := eng.PrepareCtx(context.Background(), y.Clone(), []int{0}, base); !hit {
		t.Error("identical clone missed the cache")
	}
	if _, hit, _ := eng.PrepareCtx(context.Background(), y, []int{1}, base); hit {
		t.Error("different cmodesY hit the cache")
	}
	threaded := base
	threaded.Threads = 3
	if _, hit, _ := eng.PrepareCtx(context.Background(), y, []int{0}, threaded); !hit {
		t.Error("a different thread count missed the cache: it changes build speed, not the table")
	}

	// Mutating the tensor invalidates by content, not by pointer.
	y.Vals[0] += 1
	if _, hit, _ := eng.PrepareCtx(context.Background(), y, []int{0}, base); hit {
		t.Error("mutated tensor still hit the cache")
	}
}

func TestEngineMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Config{CacheEntries: 1, Metrics: reg})
	opt := core.Options{Algorithm: core.AlgSparta}
	y1 := randomSparse([]uint64{6, 5}, 60, 1)
	y2 := randomSparse([]uint64{6, 5}, 60, 2)
	eng.PrepareCtx(context.Background(), y1, []int{0}, opt)
	eng.PrepareCtx(context.Background(), y1, []int{0}, opt) // hit
	eng.PrepareCtx(context.Background(), y2, []int{0}, opt) // miss, evicts y1's plan
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`sptc_engine_cache_total{outcome="hit"} 1`,
		`sptc_engine_cache_total{outcome="miss"} 2`,
		`sptc_engine_cache_evictions_total 1`,
		`sptc_engine_cache_entries 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestEngineRefusesBaselines: the baseline algorithms have no table to cache,
// so Engine.Contract refuses them with PreparedY.ContractX's error and
// without touching the cache.
func TestEngineRefusesBaselines(t *testing.T) {
	eng := New(Config{})
	x := randomSparse([]uint64{6, 5}, 60, 1)
	y := randomSparse([]uint64{5, 4}, 40, 2)
	pr, err := core.PrepareY(y, []int{0}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	px, err := core.PrepareX(context.Background(), x, []int{1}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.AlgSPA, core.AlgCOOHtA, core.AlgTwoPhase} {
		opt := core.Options{Algorithm: alg}
		_, _, err := eng.Contract(context.Background(), x, y, []int{1}, []int{0}, opt)
		_, _, want := pr.ContractX(context.Background(), px, opt)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("alg %v: engine error %v, want PreparedY.ContractX's %v", alg, err, want)
		}
	}
	if s := eng.Stats(); s.Hits+s.Misses != 0 {
		t.Errorf("baseline algorithms touched the cache: %+v", s)
	}
}

func TestAdmission(t *testing.T) {
	pr := prepFor(t, 1, 300)
	fp := EstimateFootprint(500, pr)
	if fp.HtY != pr.Bytes() || fp.HtAPerThread == 0 || fp.ZLocal == 0 {
		t.Fatalf("degenerate footprint %+v", fp)
	}
	if got := fp.Total(4); got != fp.HtY+4*fp.HtAPerThread+fp.ZLocal {
		t.Errorf("Total(4) = %d", got)
	}

	// Budget 0 disables the gate.
	if ok, _ := (Admission{}).Admit(fp, 4, 1<<40); !ok {
		t.Error("zero budget did not admit")
	}
	// A generous budget admits; a tiny one sheds.
	if ok, _ := (Admission{DRAMBudget: fp.Total(4) * 2}).Admit(fp, 4, 0); !ok {
		t.Error("generous budget shed the request")
	}
	if ok, _ := (Admission{DRAMBudget: 1024}).Admit(fp, 4, 0); ok {
		t.Error("tiny budget admitted the request")
	}
	// In-use bytes shrink the effective budget.
	budget := fp.Total(1) + 512
	adm := Admission{DRAMBudget: budget}
	if ok, _ := adm.Admit(fp, 1, 0); !ok {
		t.Error("exact-fit request shed")
	}
	if ok, _ := adm.Admit(fp, 1, budget-10); ok {
		t.Error("admitted past the in-use budget")
	}
}
