package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
)

// TestConcurrentSharedPrepared is the -race stress: many goroutines
// contract through one shared *PreparedY and one shared Engine while
// deadline contexts repeatedly fire mid-flight. Every completion must be
// either a correct result (identical to the serial reference) or a clean
// ctx error, and no goroutines may leak.
func TestConcurrentSharedPrepared(t *testing.T) {
	workers := 8
	rounds := 30
	if testing.Short() {
		workers, rounds = 4, 8
	}

	x := randomSparse([]uint64{12, 10, 8}, 600, 1)
	y := randomSparse([]uint64{8, 9, 7}, 500, 2)
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}

	pr, err := core.PrepareY(y, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := pr.Contract(context.Background(), x, []int{2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{CacheEntries: 4})

	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if r%3 == 1 {
					// A deadline short enough to sometimes fire mid-flight.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(r%5)*100*time.Microsecond)
				}
				var z *coo.Tensor
				var err error
				if r%2 == 0 {
					z, _, err = pr.Contract(ctx, x, []int{2}, opt)
				} else {
					z, _, err = eng.Contract(ctx, x, y, []int{2}, []int{0}, opt)
				}
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					if !z.Equal(ref) {
						errs <- fmt.Errorf("worker %d round %d: output differs", w, r)
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					// Clean cancellation is a valid outcome.
				default:
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Leak check: allow the runtime a moment to retire worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", before, after)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if s := eng.Stats(); s.Hits+s.Misses == 0 {
		t.Error("engine saw no cache traffic")
	}
}

// TestConcurrentDistinctPreparations races many goroutines preparing
// different (and some identical) Y tensors through one engine; identical
// keys must converge on one cached plan ("first build wins").
func TestConcurrentDistinctPreparations(t *testing.T) {
	eng := New(Config{CacheEntries: 8})
	opt := core.Options{Algorithm: core.AlgSparta, Threads: 2}
	ys := make([]*coo.Tensor, 4)
	for i := range ys {
		ys[i] = randomSparse([]uint64{7, 6, 5}, 200, int64(40+i))
	}

	var wg sync.WaitGroup
	plans := make([]*core.PreparedY, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pr, _, err := eng.PrepareCtx(context.Background(), ys[g%len(ys)], []int{0}, opt)
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = pr
		}(g)
	}
	wg.Wait()

	// All goroutines that prepared the same Y must hold the same plan.
	for g := range plans {
		base := plans[g%len(ys)]
		if plans[g] != base {
			t.Errorf("goroutine %d: got a different plan than goroutine %d for the same Y",
				g, g%len(ys))
		}
	}
	if s := eng.Stats(); s.Entries != len(ys) {
		t.Errorf("cache holds %d entries, want %d", s.Entries, len(ys))
	}
}
