package coo

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sparta/internal/parallel"
)

// serialSubPtr is the scan SubPtr used to be: the reference for the
// count-then-fill version.
func serialSubPtr(t *Tensor, freeModes int) []int {
	ptr := []int{0}
	for i := 1; i < t.NNZ(); i++ {
		for m := 0; m < freeModes; m++ {
			if t.Inds[m][i] != t.Inds[m][i-1] {
				ptr = append(ptr, i)
				break
			}
		}
	}
	return append(ptr, t.NNZ())
}

// stepTensor builds an order-3 tensor of n sorted rows whose mode-0 index
// steps exactly at the rows in starts (ascending, each in [1,n)), with mode 1
// stepping on every third row in between and mode 2 counting rows.
func stepTensor(n int, starts []int) *Tensor {
	t := MustNew([]uint64{uint64(n) + 1, 4, uint64(n) + 1}, n)
	a, next := uint32(0), 0
	for i := 0; i < n; i++ {
		if next < len(starts) && starts[next] == i {
			a++
			next++
		}
		t.Inds[0] = append(t.Inds[0], a)
		t.Inds[1] = append(t.Inds[1], uint32(i/3%4))
		t.Inds[2] = append(t.Inds[2], uint32(i))
		t.Vals = append(t.Vals, 1)
	}
	return t
}

// TestSubPtrParMatchesSerialScan puts sub-tensor boundaries on and around
// the rows where the threads' ranges meet — where one thread's last store
// and its neighbour's first are one slot apart — for row counts on both
// sides of the size at which the passes go parallel.
func TestSubPtrParMatchesSerialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 3, parallel.MinParallelWork - 1, parallel.MinParallelWork, parallel.MinParallelWork + 1, 3*parallel.MinParallelWork + 5} {
		for _, threads := range []int{1, 2, 3, 8} {
			// Row r+1 is item r of the passes; thread k's items start at
			// (n-1)*k/threads.
			var atSplits, everywhere []int
			for k := 1; k < threads && n > 8*threads; k++ {
				first := (n-1)*k/threads + 1
				atSplits = append(atSplits, first-1, first, first+1)
			}
			for i := 1; i < n; i++ {
				everywhere = append(everywhere, i)
			}
			var random []int
			for i := 1; i < n; i++ {
				if rng.Intn(2) == 0 {
					random = append(random, i)
				}
			}
			for name, starts := range map[string][]int{
				"none": nil, "at-splits": atSplits, "every-row": everywhere, "random": random,
			} {
				ten := stepTensor(n, starts)
				for free := 0; free <= ten.Order(); free++ {
					got, err := ten.SubPtrPar(free, threads)
					if err != nil {
						t.Fatal(err)
					}
					if want := serialSubPtr(ten, free); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d threads=%d %s freeModes=%d: %d boundaries, serial scan has %d (first difference at %d)",
							n, threads, name, free, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestKeysInOrderAgreesWithIsSorted moves one inversion through the places
// the parallel scan could lose it: the second row, the row a thread's range
// starts at, and the last row.
func TestKeysInOrderAgreesWithIsSorted(t *testing.T) {
	n := 2*parallel.MinParallelWork + 3
	const threads = 4
	sorted := func() *Tensor {
		ten := MustNew([]uint64{uint64(n), 5}, n)
		for i := 0; i < n; i++ {
			ten.Append([]uint32{uint32(i / 2), uint32(i % 2 * 3)}, 1) // every row twice in mode 0
		}
		return ten
	}
	cases := map[string]func(*Tensor){
		"sorted": func(*Tensor) {},
		"duplicate rows": func(ten *Tensor) {
			for i := 1; i < n; i += 7 {
				ten.Inds[0][i], ten.Inds[1][i] = ten.Inds[0][i-1], ten.Inds[1][i-1]
			}
		},
		"inversion at row 1":   func(ten *Tensor) { ten.Swap(0, 1) },
		"inversion at a split": func(ten *Tensor) { s := (n - 1) * 2 / threads; ten.Swap(s, s+1) },
		"inversion at row n-1": func(ten *Tensor) { ten.Swap(n-2, n-1) },
	}
	for name, mutate := range cases {
		ten := sorted()
		mutate(ten)
		r, err := ten.Radix()
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range []int{1, threads} {
			if got, want := ten.keysInOrder(r, th), ten.IsSorted(); got != want {
				t.Errorf("%s, threads=%d: keysInOrder = %v, IsSorted = %v", name, th, got, want)
			}
		}
	}
}

// TestSortedInputAllocatesNothingPerRow pins the hit path of the sorter: rows
// already in order are recognised before the (key, pos) slice — 16 bytes a
// row — or anything else sized by nnz is allocated, in a box that fits one
// LN key and in one that needs three (rows tie on the leading key word in
// pairs, so the tie compare runs).
func TestSortedInputAllocatesNothingPerRow(t *testing.T) {
	n := 200_000
	for _, dims := range [][]uint64{{uint64(n), 7}, {uint64(n), 7, 1 << 32, 1 << 32}} {
		ten := MustNew(dims, n)
		row := make([]uint32, len(dims))
		for i := 0; i < n; i++ {
			row[0], row[1] = uint32(i), uint32(i%7)
			if len(row) > 2 {
				row[0], row[1], row[3] = uint32(i/2), 0, uint32(i%2)
			}
			ten.Append(row, 1)
		}
		for _, threads := range []int{1, 2} {
			var info SortInfo
			allocs := testing.AllocsPerRun(5, func() { info = ten.SortWith(threads, SortAuto) })
			if !info.Stats.Sorted {
				t.Fatalf("dims %v threads=%d: sorted rows not recognised: %+v", dims, threads, info)
			}
			// Each key word past the first costs its encoder's three.
			if words, _ := ten.keyWords(); allocs > float64(12+3*(len(words)-1)) {
				t.Errorf("dims %v threads=%d: %v allocations sorting sorted rows, want a handful of goroutine closures and key words", dims, threads, allocs)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ten.SortWith(threads, SortAuto)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(n)/8 {
				t.Errorf("dims %v threads=%d: %d bytes allocated sorting %d sorted rows", dims, threads, got, n)
			}
		}
	}
}
