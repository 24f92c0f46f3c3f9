// Package dist is the scatter/gather execution layer that takes one SpTC
// past a single process: a Coordinator partitions X into S shards by hashing
// each non-zero's free-mode index tuple on a consistent-hash ring, contracts
// every shard against a replicated prepared Y on an Executor (in-process
// engine or remote sptc-serve worker), and k-way merges the per-shard sorted
// Z runs with coo.MergeRuns — the sort-fused pipeline's stage ⑤ stays dead
// end-to-end.
//
// Partitioning by the *free*-mode tuple (not the contract key) is what keeps
// the distributed output bitwise identical to the one-shot contraction: a
// free-mode prefix names one output sub-tensor, so every non-zero that
// contributes to a given Z coordinate lands on the same shard, each shard
// runs the identical per-sub-tensor kernel in the identical order, and the
// merged runs are pairwise disjoint — no cross-shard floating-point
// summation ever happens. Hashing the contract key instead would split
// output coordinates across shards and force a value merge whose addition
// order differs from the one-shot run. See DESIGN.md §15.
package dist

import (
	"context"
	"fmt"

	"sparta/internal/coo"
	"sparta/internal/core"
)

// Job carries the per-request contraction parameters an Executor needs
// beyond the tensors themselves: the contract-mode pairing and the thread /
// tracing options. Executors treat the X they receive as private
// (the coordinator hands each shard a freshly scattered tensor), so
// Options.InPlace is safe and set by the coordinator.
type Job struct {
	CmodesX []int
	CmodesY []int
	Options core.Options
}

// Executor contracts one shard of X against a replicated Y. Implementations
// must be safe for concurrent Contract calls (the coordinator fans out one
// goroutine per non-empty shard) and must honor ctx cancellation. Local runs
// in-process through a private engine; HTTP dispatches to a remote
// sptc-serve worker's /shard/contract endpoint.
type Executor interface {
	// Name identifies the shard for routing, retry accounting, and traces.
	Name() string
	// Contract runs Z_s = X_s ×_{cmodesX}^{cmodesY} Y and returns the
	// shard's sorted run plus its stage report.
	Contract(ctx context.Context, x, y *coo.Tensor, job Job) (*coo.Tensor, *core.Report, error)
	// Close releases executor resources (idle connections, caches).
	Close() error
}

// ShardError is the coordinator's terminal failure for one shard: every
// allowed attempt (primary plus failovers) failed. sptc-serve maps it to a
// named shed reason (shed_shards) so clients and metrics can tell a
// distributed failure from a local one.
type ShardError struct {
	// Shard names the primary executor the partition hashed to.
	Shard string
	// Attempts is how many executors were tried before giving up.
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("dist: shard %s failed after %d attempt(s): %v", e.Shard, e.Attempts, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }
