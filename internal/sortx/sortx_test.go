package sortx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracle sorts a copy with the stdlib stable sort, the reference every
// engine path must match exactly (stability included).
func oracle(a []KeyPos) []KeyPos {
	o := append([]KeyPos(nil), a...)
	slices.SortStableFunc(o, func(x, y KeyPos) int {
		switch {
		case x.Key < y.Key:
			return -1
		case x.Key > y.Key:
			return 1
		default:
			return 0
		}
	})
	return o
}

func checkSorted(t *testing.T, name string, got, want []KeyPos) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// adversarialInputs covers the radix engine's corner cases: all-equal keys,
// a single dense byte, already/reverse sorted, two values, and keys at the
// 2^64 boundary (the lnum boundary dims: a radix whose Card is the full
// uint64 range makes maxKey = 2^64-1 and every byte significant).
func adversarialInputs(n int, rng *rand.Rand) map[string]struct {
	keys   []uint64
	maxKey uint64
} {
	mk := func(f func(i int) uint64, maxKey uint64) struct {
		keys   []uint64
		maxKey uint64
	} {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return struct {
			keys   []uint64
			maxKey uint64
		}{ks, maxKey}
	}
	return map[string]struct {
		keys   []uint64
		maxKey uint64
	}{
		"random64":      mk(func(int) uint64 { return rng.Uint64() }, ^uint64(0)),
		"random-narrow": mk(func(int) uint64 { return uint64(rng.Intn(1000)) }, 999),
		"all-equal":     mk(func(int) uint64 { return 0xDEADBEEF }, 1<<40),
		"single-dense-byte": mk(func(int) uint64 {
			// only byte 3 varies; bytes 0-2 and 4-7 are constant
			return 0x11_00_00_00_00_00_22_33 | uint64(rng.Intn(256))<<24
		}, ^uint64(0)),
		"ascending":  mk(func(i int) uint64 { return uint64(i) }, uint64(n)),
		"descending": mk(func(i int) uint64 { return uint64(n - i) }, uint64(n)),
		"two-values": mk(func(int) uint64 { return uint64(rng.Intn(2)) * (1 << 50) }, 1<<51),
		"boundary-2^64": mk(func(int) uint64 {
			// keys hugging both ends of the uint64 range
			if rng.Intn(2) == 0 {
				return ^uint64(0) - uint64(rng.Intn(4))
			}
			return uint64(rng.Intn(4))
		}, ^uint64(0)),
	}
}

// TestSortMatchesOracle sweeps sizes (serial and parallel paths), thread
// counts, and adversarial key patterns; every combination must match the
// stable stdlib sort exactly, proving both the ordering and the stability
// the coo sorter's tie-break relies on.
func TestSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 100, 4096, parallelMin + 1234} {
		for name, in := range adversarialInputs(n, rng) {
			for _, threads := range []int{1, 2, 4, 8} {
				a := make([]KeyPos, n)
				for i := range a {
					a[i] = KeyPos{Key: in.keys[i], Pos: int32(i)}
				}
				want := oracle(a)
				st := Sort(a, in.maxKey, threads)
				checkSorted(t, name, a, want)
				if n >= 2 && st.Passes+st.Skipped == 0 && in.maxKey > 0 && !st.Serial && !st.Sorted {
					t.Fatalf("%s n=%d threads=%d: no passes accounted: %+v", name, n, threads, st)
				}
			}
		}
	}
}

// TestSortSkipsConstantBytes asserts the pass-skipping claims: all-equal
// keys execute zero passes, and single-dense-byte keys partition on exactly
// that byte with zero LSD passes.
func TestSortSkipsConstantBytes(t *testing.T) {
	n := parallelMin + 100
	a := make([]KeyPos, n)
	for i := range a {
		a[i] = KeyPos{Key: 42, Pos: int32(i)}
	}
	st := Sort(a, 1<<30, 4)
	if st.Passes != 0 {
		t.Fatalf("all-equal keys ran %d passes, want 0 (%+v)", st.Passes, st)
	}
	for i := range a {
		if a[i].Pos != int32(i) {
			t.Fatalf("all-equal keys permuted the input at %d", i)
		}
	}

	rng := rand.New(rand.NewSource(8))
	for i := range a {
		a[i] = KeyPos{Key: 0xAA_00_00_00_00_00_00_55 | uint64(rng.Intn(256))<<24, Pos: int32(i)}
	}
	want := oracle(a)
	st = Sort(a, ^uint64(0), 4)
	checkSorted(t, "single-dense-byte", a, want)
	if st.Passes != 1 {
		t.Fatalf("single dense byte ran %d passes, want 1 (MSD only): %+v", st.Passes, st)
	}
	if st.Skipped != 7 {
		t.Fatalf("single dense byte skipped %d passes, want 7: %+v", st.Skipped, st)
	}
}

// TestSortSortedInput asserts the pre-scan: a key-sorted input (including
// all-equal keys, which are trivially sorted) must return with Sorted set,
// zero passes, and the slice untouched.
func TestSortSortedInput(t *testing.T) {
	n := parallelMin + 77
	a := make([]KeyPos, n)
	for i := range a {
		a[i] = KeyPos{Key: uint64(i / 3), Pos: int32(i)} // sorted with duplicates
	}
	st := Sort(a, uint64(n), 4)
	if !st.Sorted || st.Passes != 0 {
		t.Fatalf("sorted input not short-circuited: %+v", st)
	}
	for i := range a {
		if a[i].Pos != int32(i) {
			t.Fatalf("sorted input permuted at %d", i)
		}
	}
}

// TestSortStats sanity-checks the partition accounting on the parallel path.
func TestSortStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2 * parallelMin
	a := make([]KeyPos, n)
	for i := range a {
		a[i] = KeyPos{Key: rng.Uint64(), Pos: int32(i)}
	}
	st := Sort(a, ^uint64(0), 4)
	if st.Serial {
		t.Fatalf("n=%d threads=4 took the serial path", n)
	}
	if st.Partitions < 2 || st.Partitions > 256 {
		t.Fatalf("partitions = %d, want 2..256", st.Partitions)
	}
	if st.MaxRun < n/256 || st.MaxRun > n {
		t.Fatalf("MaxRun = %d out of range for n=%d", st.MaxRun, n)
	}
}

// TestSortPairsMatchesOracle checks the fused-writeback run sorter against
// a sorted copy, values tracking their keys, across sizes spanning the
// insertion and radix paths, including duplicate keys.
func TestSortPairsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sk []uint64
	var sv []float64
	for _, n := range []int{0, 1, 2, pairInsertionMax, pairInsertionMax + 1, 1000, 30000} {
		for trial := 0; trial < 3; trial++ {
			maxKey := uint64(1)<<uint(8+rng.Intn(56)) - 1
			keys := make([]uint64, n)
			vals := make([]float64, n)
			type kv struct {
				k uint64
				v float64
			}
			ref := make([]kv, n)
			for i := range keys {
				keys[i] = rng.Uint64() & maxKey
				vals[i] = float64(keys[i]) * 0.5
				ref[i] = kv{keys[i], vals[i]}
			}
			slices.SortStableFunc(ref, func(a, b kv) int {
				switch {
				case a.k < b.k:
					return -1
				case a.k > b.k:
					return 1
				default:
					return 0
				}
			})
			SortPairs(keys, vals, maxKey, &sk, &sv)
			for i := range keys {
				if keys[i] != ref[i].k || vals[i] != ref[i].v {
					t.Fatalf("n=%d trial=%d: pair %d = (%d,%v), want (%d,%v)",
						n, trial, i, keys[i], vals[i], ref[i].k, ref[i].v)
				}
			}
		}
	}
}

// TestSortPairsSharedHighBytes: a run whose keys differ only in the low
// byte must sort correctly while the scratch stays untouched by high-byte
// passes (behavioral check: result correct with a tiny scratch reused
// across differently-shaped runs).
func TestSortPairsSharedHighBytes(t *testing.T) {
	var sk []uint64
	var sv []float64
	base := uint64(0x0123_4567_89AB_0000)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		n := 100 + rng.Intn(400)
		keys := make([]uint64, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = base | uint64(rng.Intn(256))
			vals[i] = float64(i)
		}
		SortPairs(keys, vals, ^uint64(0), &sk, &sv)
		for i := 1; i < n; i++ {
			if keys[i] < keys[i-1] {
				t.Fatalf("trial %d: keys out of order at %d", trial, i)
			}
		}
	}
}

func BenchmarkSortRandom(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		rng := rand.New(rand.NewSource(1))
		base := make([]KeyPos, n)
		for i := range base {
			base[i] = KeyPos{Key: rng.Uint64() >> 20, Pos: int32(i)}
		}
		work := make([]KeyPos, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, base)
				Sort(work, ^uint64(0)>>20, 4)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<16:
		return "64k"
	default:
		return "4k"
	}
}

// widthPatterns builds the adversarial key patterns of TestSortWidthGrid for
// one declared key width: every key is at most maxKey = 2^width - 1.
func widthPatterns(n, width int, rng *rand.Rand) map[string][]uint64 {
	maxKey := ^uint64(0) >> uint(64-width)
	// step spreads n ascending keys over [0, maxKey]; narrow widths repeat.
	spread := func(i int) uint64 {
		if maxKey >= uint64(n) {
			return uint64(i) * (maxKey / uint64(n))
		}
		return uint64(i) * maxKey / uint64(n)
	}
	mk := func(f func(i int) uint64) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = f(i)
		}
		return ks
	}
	low := ^uint64(0) >> uint(64-min(width, 12))
	return map[string][]uint64{
		"all-equal":      mk(func(int) uint64 { return maxKey / 3 }),
		"sorted":         mk(spread),
		"reverse":        mk(func(i int) uint64 { return spread(n - 1 - i) }),
		"two-keys":       mk(func(int) uint64 { return uint64(rng.Intn(2)) * maxKey }),
		"one-live-bit":   mk(func(int) uint64 { return maxKey/2 ^ uint64(rng.Intn(2))<<uint(width/2) }),
		"dense-low-bits": mk(func(int) uint64 { return rng.Uint64() & low }),
	}
}

// TestSortWidthGrid holds Sort to the stable stdlib sort over key widths that
// put the live bits on, just under and just over digit boundaries, sizes on
// both sides of the insertion and MSD cut-overs, and patterns that starve
// one digit or another, and checks the Stats account of every run.
func TestSortWidthGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	big := 300_000
	if testing.Short() {
		big = 3 * parallelMin
	}
	for _, width := range []int{1, 7, 8, 9, 27, 41, 45, 46, 63, 64} {
		maxKey := ^uint64(0) >> uint(64-width)
		for _, n := range []int{0, 1, insertionMax, parallelMin - 1, parallelMin, big} {
			for name, keys := range widthPatterns(n, width, rng) {
				in := make([]KeyPos, n)
				for i := range in {
					in[i] = KeyPos{Key: keys[i], Pos: int32(i)}
				}
				want := oracle(in)
				for _, threads := range []int{1, 2, 8} {
					a := append([]KeyPos(nil), in...)
					st := Sort(a, maxKey, threads)
					label := fmt.Sprintf("width=%d n=%d %s threads=%d", width, n, name, threads)
					checkSorted(t, label, a, want)
					if st.Partitions > 256 || st.MaxRun > n {
						t.Fatalf("%s: partition account out of range: %+v", label, st)
					}
					if counted := !st.Sorted && n > insertionMax; counted && 8*(st.Passes+st.Skipped) < width {
						t.Fatalf("%s: %d passes + %d skipped do not cover %d key bits: %+v",
							label, st.Passes, st.Skipped, width, st)
					}
				}
			}
		}
	}
}

// TestSortPartitionsOnLiveBits is the regression test for the byte-aligned
// MSD digit: 41-bit keys vary in one bit of their top byte, which used to
// give two partitions however the keys were spread.
func TestSortPartitionsOnLiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	maxKey := uint64(1)<<41 - 1
	a := make([]KeyPos, 4*parallelMin)
	for i := range a {
		a[i] = KeyPos{Key: rng.Uint64() & maxKey, Pos: int32(i)}
	}
	want := oracle(a)
	st := Sort(a, maxKey, 2)
	checkSorted(t, "uniform 41-bit keys", a, want)
	if st.Partitions < 64 {
		t.Fatalf("uniform 41-bit keys fell into %d MSD partitions, want >= 64: %+v", st.Partitions, st)
	}
}
