package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dist"
	"sparta/internal/gen"
	"sparta/internal/parallel"
	"sparta/internal/stats"
)

// This file is the -exp shard duel (BENCH_6.json): the sharded
// scatter/gather path (partition X by hashed free-mode tuples → contract
// each shard against the replicated prepared Y → merge the sorted runs)
// against the one-shot contraction on the same inputs. Every row asserts the
// merged output is bitwise identical (Equal + checksum), so the duel doubles
// as the macro-scale proof behind the internal/dist oracle suite.
//
// Two walls are reported per cell:
//
//   - scaleout_ns models the S-worker fleet: partition + max(per-shard
//     serial wall) + merge. The per-shard contractions are timed one at a
//     time, so the model holds on any host — including the single-core CI
//     boxes this duel runs on — the way the paper's Fig. 6 CPU-sum column
//     simulates its platforms.
//   - measured_ns is the real coordinator wall with S in-process executors.
//     On a single core the concurrent legs serialize and this lands near the
//     one-shot wall (plus partition+merge overhead); on an S-core host it
//     approaches the modeled wall.
type shardDuelRow struct {
	Shards int `json:"shards"`
	NNZX   int `json:"nnzx"`
	NNZY   int `json:"nnzy"`
	NNZZ   int `json:"nnzz"`
	// ShardBalance is max shard nnzx over the perfect nnzx/S split (1.0 =
	// perfectly balanced hash partition).
	ShardBalance float64 `json:"shard_balance"`
	PartitionNS  int64   `json:"partition_ns"`
	MaxShardNS   int64   `json:"max_shard_ns"`
	MergeNS      int64   `json:"merge_ns"`
	ScaleoutNS   int64   `json:"scaleout_ns"`
	MeasuredNS   int64   `json:"measured_ns"`
	OneshotNS    int64   `json:"oneshot_ns"`
	// SpeedupScaleout = oneshot / scaleout: the modeled S-worker speedup.
	SpeedupScaleout float64 `json:"speedup_scaleout"`
	SpeedupMeasured float64 `json:"speedup_measured"`
	Checksum        string  `json:"checksum"`
	// Identical: merged sharded Z is bitwise equal to the one-shot Z.
	Identical bool `json:"identical_output"`
}

type shardDuelFile struct {
	Meta    Meta           `json:"meta"`
	Configs []shardDuelRow `json:"configs"`
}

const shardDuelReps = 3

// Shard runs the sharded scatter/gather duel (no JSON output).
func Shard(w io.Writer, c Config) error { return ShardJSON(w, c, "") }

// ShardJSON is the -exp shard duel across S ∈ {1,2,4,8}. It fails only when
// a sharded output differs from one-shot; the speedup ratios are gated by
// cmd/sptc-grid against lint/grid_thresholds.json. When jsonPath is non-empty
// the rows are written there (BENCH_6.json).
func ShardJSON(w io.Writer, c Config, jsonPath string) error {
	threads := c.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	scale := c.Scale
	if scale < 4000 {
		scale = 4000
	}
	// X: two free modes (512x48 = 24.5k free tuples hash-partition evenly,
	// ~6 nnz each so accumulation is heavy and Z stays far smaller than the
	// product count), last mode contracted against a small replicated Y —
	// the shape the scatter/gather path exists for: X dominates, Y rides the
	// plan cache, and per-shard contraction work dwarfs the run merge.
	x := gen.Random([]uint64{512, 48, 64}, 8*scale, c.Seed)
	y := gen.Random([]uint64{64, 48}, scale/2+64, c.Seed+1)
	cmodesX, cmodesY := []int{2}, []int{0}

	fmt.Fprintf(w, "Shard duel: scatter/gather vs one-shot, %d reps (min); scaleout = partition + max shard + merge\n",
		shardDuelReps)
	file := shardDuelFile{Meta: c.meta("shard",
		fmt.Sprintf("synthetic X 512x48x64 (nnz=%d) x Y 64x48 (nnz=%d), contract X mode 2 vs Y mode 0",
			x.NNZ(), y.NNZ()), shardDuelReps)}
	tab := stats.NewTable("S", "Balance", "Partition", "MaxShard", "Merge", "Scaleout", "Measured", "Oneshot", "Speedup", "Identical")

	opt := core.Options{
		Algorithm: core.AlgSparta,
		Threads:   threads,
		Tracer:    c.Tracer,
		Metrics:   c.Metrics,
	}
	// One warm prepared Y for the whole duel: sharding replicates the
	// plan, so neither side charges the HtY build.
	pr, err := core.PrepareY(y, cmodesY, opt)
	if err != nil {
		return fmt.Errorf("shard: prepare: %w", err)
	}
	zdims := append([]uint64{}, x.Dims[0], x.Dims[1], y.Dims[1])

	var zOne *coo.Tensor
	var oneWall int64
	for rep := 0; rep < shardDuelReps; rep++ {
		t0 := time.Now()
		z, _, err := pr.Contract(context.Background(), x, cmodesX, opt)
		if err != nil {
			return fmt.Errorf("shard: one-shot: %w", err)
		}
		wall := int64(time.Since(t0))
		if rep == 0 || wall < oneWall {
			oneWall = wall
		}
		if zOne != nil && !z.Equal(zOne) {
			return fmt.Errorf("shard: one-shot: unstable output across reps")
		}
		zOne = z
	}

	for _, S := range []int{1, 2, 4, 8} {
		names := make([]string, S)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		ring, err := dist.NewRing(names, 0)
		if err != nil {
			return err
		}

		var row shardDuelRow
		var parts []*coo.Tensor
		for rep := 0; rep < shardDuelReps; rep++ {
			t0 := time.Now()
			p, err := dist.Partition(x, cmodesX, ring, threads)
			if err != nil {
				return fmt.Errorf("shard: partition (S=%d): %w", S, err)
			}
			wall := int64(time.Since(t0))
			if rep == 0 || wall < row.PartitionNS {
				row.PartitionNS = wall
			}
			parts = p
		}
		maxNNZ := 0
		for _, p := range parts {
			if p.NNZ() > maxNNZ {
				maxNNZ = p.NNZ()
			}
		}
		row.ShardBalance = float64(maxNNZ) * float64(S) / float64(x.NNZ())

		// Per-shard serial walls against the warm replicated plan: the
		// modeled fleet wall is the slowest leg.
		runs := make([]*coo.Tensor, len(parts))
		for s, p := range parts {
			if p.NNZ() == 0 {
				continue
			}
			var shardWall int64
			for rep := 0; rep < shardDuelReps; rep++ {
				t0 := time.Now()
				z, _, err := pr.Contract(context.Background(), p, cmodesX, opt)
				if err != nil {
					return fmt.Errorf("shard: shard %d (S=%d): %w", s, S, err)
				}
				wall := int64(time.Since(t0))
				if rep == 0 || wall < shardWall {
					shardWall = wall
				}
				runs[s] = z
			}
			if shardWall > row.MaxShardNS {
				row.MaxShardNS = shardWall
			}
		}

		var zMerged *coo.Tensor
		for rep := 0; rep < shardDuelReps; rep++ {
			t0 := time.Now()
			z, err := coo.MergeRuns(zdims, runs)
			if err != nil {
				return fmt.Errorf("shard: merge (S=%d): %w", S, err)
			}
			wall := int64(time.Since(t0))
			if rep == 0 || wall < row.MergeNS {
				row.MergeNS = wall
			}
			zMerged = z
		}

		// Measured wall: the real coordinator over S in-process shards,
		// warmed so every shard's plan cache holds the HtY.
		execs := make([]dist.Executor, S)
		for i := range execs {
			execs[i] = dist.NewLocal(names[i], dist.LocalConfig{})
		}
		coord, err := dist.NewCoordinator(dist.Config{Executors: execs})
		if err != nil {
			return err
		}
		var zCoord *coo.Tensor
		var measured int64
		for rep := 0; rep < shardDuelReps+1; rep++ {
			t0 := time.Now()
			z, _, err := coord.Contract(context.Background(), x, y, cmodesX, cmodesY, opt)
			if err != nil {
				return fmt.Errorf("shard: coordinator (S=%d): %w", S, err)
			}
			if rep == 0 {
				continue // warm-up: first pass builds every shard's HtY
			}
			wall := int64(time.Since(t0))
			if rep == 1 || wall < measured {
				measured = wall
			}
			zCoord = z
		}
		_ = coord.Close()

		row.Shards = S
		row.NNZX = x.NNZ()
		row.NNZY = y.NNZ()
		row.NNZZ = zMerged.NNZ()
		row.ScaleoutNS = row.PartitionNS + row.MaxShardNS + row.MergeNS
		row.MeasuredNS = measured
		row.OneshotNS = oneWall
		row.SpeedupScaleout = float64(oneWall) / float64(row.ScaleoutNS)
		row.SpeedupMeasured = float64(oneWall) / float64(measured)
		row.Checksum = checksum(zMerged)
		row.Identical = zMerged.Equal(zOne) && zCoord.Equal(zOne) && row.Checksum == checksum(zOne)
		if !row.Identical {
			return fmt.Errorf("shard: S=%d: sharded output differs from one-shot (nnz %d vs %d, checksum %s vs %s)",
				S, zMerged.NNZ(), zOne.NNZ(), row.Checksum, checksum(zOne))
		}
		file.Configs = append(file.Configs, row)
		tab.Row(S, fmt.Sprintf("%.2f", row.ShardBalance),
			time.Duration(row.PartitionNS), time.Duration(row.MaxShardNS), time.Duration(row.MergeNS),
			time.Duration(row.ScaleoutNS), time.Duration(measured), time.Duration(oneWall),
			fmt.Sprintf("%.2fx", row.SpeedupScaleout), row.Identical)
	}
	tab.Render(w)
	fmt.Fprintln(w, "Speedup = oneshot / scaleout (modeled S-worker wall); Measured = real coordinator wall on this host.")
	if jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return nil
}
