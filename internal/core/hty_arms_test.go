package core

import (
	"context"
	"fmt"
	"testing"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
)

// forceArm overrides HtY's index-arm choice for one test, so the same inputs
// run against the hashed table and the direct CSR. Tests that use it must
// not run in parallel.
func forceArm(t testing.TB, arm hashtab.Arm) {
	t.Helper()
	t.Cleanup(hashtab.ForceArm(arm))
}

// TestHtYArmsBitwise is the arm oracle: every route that probes HtY — the
// one-shot Contract, a PreparedY used twice, the streamed driver and the
// two-phase baseline — gives, on the forced direct arm, the Z the forced
// hashed arm gives, bitwise, at 1, 2 and 4 threads. The report's counts are
// the hashed arm's except the fields that describe the index: one probe a
// lookup, card(Cy) buckets and 4*(card+1) + 16*nnz_Y bytes, still under
// Eq. 5's estimate.
func TestHtYArmsBitwise(t *testing.T) {
	setChunkCap(t, 64)
	ctx := context.Background()
	for _, c := range denseCases() {
		forceArm(t, hashtab.ArmHashed)
		want, wantRep, err := Contract(c.x, c.y, c.cmX, c.cmY, Options{Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wantRep.HtYBuildWalls.Direct {
			t.Fatalf("%s: forced hashed arm built the direct index", c.name)
		}
		radC, err := c.y.RadixOf(c.cmY)
		if err != nil {
			t.Fatal(err)
		}
		card := radC.Card()
		for _, arm := range []hashtab.Arm{hashtab.ArmHashed, hashtab.ArmDirect} {
			forceArm(t, arm)
			for _, threads := range []int{1, 2, 4} {
				opt := Options{Threads: threads}
				name := fmt.Sprintf("%s arm=%d threads=%d", c.name, arm, threads)
				check := func(route string, z *coo.Tensor, rep *Report) {
					t.Helper()
					if d := bitwiseDiff(z, want); d != "" {
						t.Fatalf("%s %s: Z differs from the hashed one-shot: %s", name, route, d)
					}
					if rep.Products != wantRep.Products || rep.NNZZ != wantRep.NNZZ || rep.HitsY != wantRep.HitsY ||
						rep.MissY != wantRep.MissY || rep.DistinctKeysY != wantRep.DistinctKeysY || rep.MaxSubNNZY != wantRep.MaxSubNNZY {
						t.Errorf("%s %s: counts differ from the hashed one-shot:\n got %+v\nwant %+v", name, route, rep, wantRep)
					}
					checkArmReport(t, name+" "+route, arm, card, c.y, rep)
				}

				z, rep, err := Contract(c.x, c.y, c.cmX, c.cmY, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check("one-shot", z, rep)
				if arm == hashtab.ArmHashed && rep.ProbesHtY != wantRep.ProbesHtY {
					t.Errorf("%s: %d probes, the hashed one-shot %d", name, rep.ProbesHtY, wantRep.ProbesHtY)
				}

				pr, err := PrepareY(c.y, c.cmY, opt)
				if err != nil {
					t.Fatal(err)
				}
				for call := 0; call < 2; call++ {
					z, rep, err := pr.Contract(ctx, c.x, c.cmX, opt)
					if err != nil {
						t.Fatalf("%s prepared call %d: %v", name, call, err)
					}
					check(fmt.Sprintf("prepared call %d", call), z, rep)
				}

				px, err := PrepareX(ctx, c.x, c.cmX, opt)
				if err != nil {
					t.Fatal(err)
				}
				z, rep, err = ContractStreamX(ctx, px, 7, pr, StreamOptions{Options: opt})
				if err != nil {
					t.Fatalf("%s streamed: %v", name, err)
				}
				check("streamed", z, rep)

				z, rep, err = Contract(c.x, c.y, c.cmX, c.cmY, Options{Algorithm: AlgTwoPhase, Threads: threads})
				if err != nil {
					t.Fatalf("%s two-phase: %v", name, err)
				}
				if d := bitwiseDiff(z, want); d != "" {
					t.Fatalf("%s two-phase: Z differs from the hashed one-shot: %s", name, d)
				}
				checkArmReport(t, name+" two-phase", arm, card, c.y, rep)
			}
		}
	}
}

// checkArmReport checks the fields of rep that describe HtY's index against
// the arm that built it: a forced direct pick takes the direct arm up to
// htyDirectMax (card 2^20), where it counts one probe a lookup, card(Cy)
// buckets and 4*(card+1) + 16*nnz_Y bytes. Eq. 5's estimate bounds the bytes
// on the direct arm always and on the hashed arm from order 3 up.
func checkArmReport(t *testing.T, name string, arm hashtab.Arm, card uint64, y *coo.Tensor, rep *Report) {
	t.Helper()
	direct := arm == hashtab.ArmDirect && card <= 1<<20
	if rep.HtYBuildWalls.Direct != direct {
		t.Fatalf("%s: direct arm %v, want %v", name, rep.HtYBuildWalls.Direct, direct)
	}
	if direct {
		if rep.BucketsHtY != int(card) || rep.BytesHtY != 4*(card+1)+16*uint64(y.NNZ()) {
			t.Errorf("%s: %d buckets, %d bytes; want card %d and 4*(card+1) + 16*%d", name, rep.BucketsHtY, rep.BytesHtY, card, y.NNZ())
		}
		if rep.Algorithm == AlgSparta && rep.ProbesHtY != rep.HitsY+rep.MissY {
			t.Errorf("%s: %d probes for %d lookups, want one each", name, rep.ProbesHtY, rep.HitsY+rep.MissY)
		}
		if rep.HtYBuildWalls.Sort != 0 || rep.HtYBuildWalls.Fill != 0 {
			t.Errorf("%s: direct build walls %+v, want Sort and Fill 0", name, rep.HtYBuildWalls)
		}
	}
	if (direct || y.Order() >= 3) && rep.EstBytesHtY < rep.BytesHtY {
		t.Errorf("%s: Eq. 5 estimate %d below the table's %d bytes", name, rep.EstBytesHtY, rep.BytesHtY)
	}
}
