// Package sparta is a Go implementation of Sparta — high-performance,
// element-wise sparse tensor contraction on heterogeneous memory (Liu, Ren,
// Gioiosa, Li, Li; PPoPP 2021).
//
// The core operation is the sparse tensor contraction (SpTC)
//
//	Z = X ×_{cmodesX}^{cmodesY} Y
//
// between two COO sparse tensors of arbitrary order, computed in five
// stages (input processing, index search, accumulation, writeback, output
// sorting) by Sparta proper (hash-table Y + hash-table accumulator, the
// zero Options) or one of three baselines: the SpGEMM-style SpTC-SPA, the
// intermediate COOY+HtA and the symbolic+numeric two-phase SpTC. All stages
// are parallel.
//
// The package also provides the paper's substrates: a block-sparse
// contraction engine (the ITensor-style baseline of §5.3), synthetic
// dataset generators standing in for the FROSTT and Hubbard-2D tensors, and
// a DRAM+Optane heterogeneous-memory simulator implementing the §4 data
// placement policies.
//
// Quick start:
//
//	x := sparta.Random([]uint64{100, 80, 60}, 5000, 1)
//	y := sparta.Random([]uint64{60, 50}, 2000, 2)
//	z, rep, err := sparta.Contract(x, y, []int{2}, []int{0}, sparta.Options{})
//
// Contract is PrepareX, PrepareY and PreparedY.ContractX in one call. A
// caller that contracts an operand more than once keeps the prepared half:
//
//	py, err := sparta.PrepareY(y, []int{0}, sparta.Options{})
//	px, err := sparta.PrepareX(ctx, x, []int{2}, sparta.Options{})
//	z, rep, err := py.ContractX(ctx, px, sparta.Options{})
//
// A sorted v2 file in contraction order (OpenMapped) is prepared where it
// lies, and ContractStreamX walks any PreparedX window by window.
package sparta

import (
	"context"
	"io"

	"sparta/internal/blocksparse"
	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/gen"
	"sparta/internal/hetmem"
)

// Tensor is a sparse tensor in coordinate (COO) format. See NewTensor,
// Random, GeneratePreset, and LoadTNS for constructors.
type Tensor = coo.Tensor

// NewTensor allocates an empty COO tensor with the given mode sizes.
func NewTensor(dims []uint64, capHint int) (*Tensor, error) { return coo.New(dims, capHint) }

// LoadTNS reads a tensor from a FROSTT-style .tns file.
func LoadTNS(path string) (*Tensor, error) { return coo.LoadTNS(path) }

// ReadTNS parses a .tns stream.
func ReadTNS(r io.Reader) (*Tensor, error) { return coo.ReadTNS(r) }

// LoadBin reads a tensor from the repository's fast binary format (either
// version; see Tensor.SaveBin for v1 and Tensor.SaveBinV2 for the
// mmap-ready v2 layout).
func LoadBin(path string) (*Tensor, error) { return coo.LoadBin(path) }

// ReadBin parses a binary tensor stream.
func ReadBin(r io.Reader) (*Tensor, error) { return coo.ReadBin(r) }

// Mapped is a read-only tensor view backed by an mmap'd v2 binary file:
// opening is O(1), pages fault in as they are touched, and the kernel can
// evict cold pages under memory pressure — the substrate of the out-of-core
// streaming tier.
type Mapped = coo.Mapped

// OpenMapped opens a binary tensor file as a Mapped view (zero-copy for v2
// files on little-endian unix hosts; a heap fallback elsewhere).
func OpenMapped(path string) (*Mapped, error) { return coo.OpenMapped(path) }

// StreamOptions configures ContractStreamX (Options plus the Z spill
// controls).
type StreamOptions = core.StreamOptions

// MergeRuns merges sorted, pairwise-disjoint output runs into one tensor
// (concatenation when the runs are already ascending — the streamed-driver
// case).
func MergeRuns(dims []uint64, runs []*Tensor) (*Tensor, error) { return coo.MergeRuns(dims, runs) }

// Algorithm selects the SpTC variant.
type Algorithm = core.Algorithm

// The algorithms of the evaluation: Sparta, the zero value, and the paper's
// three baselines.
const (
	AlgSparta   = core.AlgSparta   // Sparta (Algorithm 2)
	AlgSPA      = core.AlgSPA      // SpTC-SPA baseline (Algorithm 1)
	AlgCOOHtA   = core.AlgCOOHtA   // COO Y + hash-table accumulator
	AlgTwoPhase = core.AlgTwoPhase // traditional symbolic+numeric two-phase SpTC
)

// Options configures Contract.
type Options = core.Options

// ErrOutputTooLarge is what errors.Is matches when a contraction's output
// exceeds Options.MaxOutputNNZ, on every algorithm and execution tier;
// errors.As into *OutputTooLargeError yields the count and the limit.
var ErrOutputTooLarge = core.ErrOutputTooLarge

// OutputTooLargeError is the concrete MaxOutputNNZ error.
type OutputTooLargeError = core.OutputTooLargeError

// Report carries stage timings, operation counters, and data-object sizes
// from one contraction.
type Report = core.Report

// Stage identifies one of the five SpTC stages.
type Stage = core.Stage

// The five stages.
const (
	StageInput  = core.StageInput
	StageSearch = core.StageSearch
	StageAccum  = core.StageAccum
	StageWrite  = core.StageWrite
	StageSort   = core.StageSort
	NumStages   = core.NumStages
)

// Contract computes Z = X ×_{cmodesX}^{cmodesY} Y: contract mode
// cmodesX[k] of X against cmodesY[k] of Y (paired mode sizes must match).
// Output modes are X's free modes in their original order followed by Y's
// free modes. A fully contracted result is a 1-mode, size-1 tensor.
//
// For best performance pass the larger tensor as Y (the paper's §3.3 rule:
// Y is the probed side, X drives the probes); ChooseY reports whether
// swapping is advisable.
func Contract(x, y *Tensor, cmodesX, cmodesY []int, opt Options) (*Tensor, *Report, error) {
	return core.Contract(x, y, cmodesX, cmodesY, opt)
}

// ContractCtx is Contract with cancellation: a canceled context or expired
// deadline stops the contraction at the next parallel chunk boundary and
// returns ctx.Err().
func ContractCtx(ctx context.Context, x, y *Tensor, cmodesX, cmodesY []int, opt Options) (*Tensor, *Report, error) {
	return core.ContractCtx(ctx, x, y, cmodesX, cmodesY, opt)
}

// ---------------------------------------------------------------------------
// Prepared contractions

// PreparedY is Y's half of stage ①, done once: its HtY hash table and the
// radices that probe it. PrepareY it once, then contract many X tensors
// against it. Safe for concurrent use and immune to later mutation of the
// source Y. Every use after the first sets Report.HtYReused.
type PreparedY = core.PreparedY

// PrepareY builds the Y-side table for contracting cmodesY of y (AlgSparta
// only — the baselines have no reusable Y structure).
func PrepareY(y *Tensor, cmodesY []int, opt Options) (*PreparedY, error) {
	return core.PrepareY(y, cmodesY, opt)
}

// PreparedX is X's half of stage ①, done once: its rows permuted to
// contraction order, sorted and indexed by sub-tensor. PreparedY.ContractX
// and ContractStreamX start at the first HtY probe; every use after the
// first sets Report.XPrepared.
type PreparedX = core.PreparedX

// PrepareX permutes, sorts and indexes x for contracting its cmodesX modes.
// x is not written unless opt.InPlace.
func PrepareX(ctx context.Context, x *Tensor, cmodesX []int, opt Options) (*PreparedX, error) {
	return core.PrepareX(ctx, x, cmodesX, opt)
}

// ContractStreamX contracts a prepared X against a prepared Y in windows of
// at most windowNNZ rows, so only one window's accumulators and output run
// are hot at once; output is bitwise identical to PreparedY.ContractX.
func ContractStreamX(ctx context.Context, px *PreparedX, windowNNZ int, pr *PreparedY, opt StreamOptions) (*Tensor, *Report, error) {
	return core.ContractStreamX(ctx, px, windowNNZ, pr, opt)
}

// ChooseY reports whether the paper's "larger tensor is Y" rule suggests
// swapping the operands (note that swapping reorders the output modes to
// Y-free-then-X-free, so the caller must permute the result if mode order
// matters).
func ChooseY(x, y *Tensor) bool { return x.NNZ() > y.NNZ() }

// ---------------------------------------------------------------------------
// Generators

// Preset describes one of the paper's Table 3 datasets.
type Preset = gen.Preset

// Presets lists Table 3.
var Presets = gen.Presets

// FindPreset looks a preset up by name ("Chicago", "NIPS", ...).
func FindPreset(name string) (Preset, error) { return gen.FindPreset(name) }

// GeneratePreset synthesizes a preset scaled to about targetNNZ non-zeros,
// preserving order, relative mode sizes, and density.
func GeneratePreset(p Preset, targetNNZ int, seed int64) *Tensor {
	return gen.Generate(p, targetNNZ, seed)
}

// Random draws a uniform random sparse tensor (sorted, duplicate-free).
func Random(dims []uint64, nnz int, seed int64) *Tensor { return gen.Random(dims, nnz, seed) }

// RandomSkewed draws a sparse tensor with Zipf-like index skew alpha.
func RandomSkewed(dims []uint64, nnz int, alpha float64, seed int64) *Tensor {
	return gen.RandomSkewed(dims, nnz, alpha, seed)
}

// Workload is one dataset-contraction combination from the evaluation.
type Workload = gen.Workload

// ---------------------------------------------------------------------------
// Block-sparse baseline

// BlockTensor is a block-sparse tensor (sector-partitioned modes with dense
// non-zero blocks) — the representation ITensor-style libraries contract.
type BlockTensor = blocksparse.Tensor

// NewBlockTensor builds an empty block tensor from per-mode sector
// partitions.
func NewBlockTensor(parts [][]uint64) (*BlockTensor, error) { return blocksparse.New(parts) }

// BlockContract contracts two block-sparse tensors the block-wise way:
// matching dense block pairs multiplied with GEMM.
func BlockContract(x, y *BlockTensor, cmodesX, cmodesY []int, threads int) (*BlockTensor, error) {
	return blocksparse.Contract(x, y, cmodesX, cmodesY, threads)
}

// BlockContractCtx is BlockContract with cooperative cancellation: the
// block-pair GEMM loop checkpoints ctx between chunk claims and returns
// ctx.Err() once the context is done.
func BlockContractCtx(ctx context.Context, x, y *BlockTensor, cmodesX, cmodesY []int, threads int) (*BlockTensor, error) {
	return blocksparse.ContractCtx(ctx, x, y, cmodesX, cmodesY, threads)
}

// Hubbard generates the SpTC pair of Table 4 row id (1..10) at paper scale.
func Hubbard(id int, seed int64) (x, y *BlockTensor, spec gen.HubbardSpec, err error) {
	return gen.Hubbard(id, 0, seed)
}

// HubbardCutoff is the element-wise truncation the paper applies to the
// Hubbard tensors (1e-8).
const HubbardCutoff = gen.HubbardCutoff

// ---------------------------------------------------------------------------
// Heterogeneous memory

// MemObject identifies one of the six placed data objects (X, Y, HtY, HtA,
// Zlocal, Z).
type MemObject = hetmem.Object

// MemProfile is the recorded access profile of a contraction, the input to
// the placement policies.
type MemProfile = hetmem.Profile

// MemPolicy simulates a placement strategy.
type MemPolicy = hetmem.Policy

// ProfileFromReport derives a memory access profile from a Sparta run.
func ProfileFromReport(rep *Report, orderX, orderY, orderZ int) *MemProfile {
	return hetmem.FromReport(rep, orderX, orderY, orderZ)
}

// MemPolicies returns the §5.5 policy lineup: Sparta static placement, IAL,
// Memory mode, Optane-only, DRAM-only.
func MemPolicies() []MemPolicy { return hetmem.AllPolicies() }
