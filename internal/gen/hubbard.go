package gen

import (
	"fmt"
	"math"
	"math/rand"

	"sparta/internal/blocksparse"
)

// HubbardSpec describes one of the ten SpTC pairs of Table 4 (tensors from
// ITensor's Hubbard-2D model): tensor shapes, target element-wise non-zero
// counts (after the 1e-8 cutoff), block counts, and the contract modes used
// for the Figure 5 comparison.
type HubbardSpec struct {
	ID                 int
	XDims              []uint64
	XNNZ, XBlocks      int
	YDims              []uint64
	YNNZ, YBlocks      int
	CModesX, CModesY   []int
	XDensity, YDensity float64
}

// HubbardCutoff is the truncation threshold the paper applies to the
// Hubbard-2D tensors before feeding them to Sparta.
const HubbardCutoff = 1e-8

// HubbardSpecs is Table 4. Contract modes pair X's quantum-number-shared
// modes with Y's (sizes 24-or-36 and 4), chosen per row so paired dims
// match.
var HubbardSpecs = []HubbardSpec{
	{ID: 1, XDims: []uint64{129, 4, 184, 24, 4}, XNNZ: 109287, XBlocks: 10453, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 4.8e-3, YDensity: 6.9e-3},
	{ID: 2, XDims: []uint64{129, 4, 184, 24, 4}, XNNZ: 114877, XBlocks: 12044, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 5.0e-3, YDensity: 6.9e-3},
	{ID: 3, XDims: []uint64{4, 129, 184, 24, 4}, XNNZ: 114877, XBlocks: 12044, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 5.0e-3, YDensity: 6.9e-3},
	{ID: 4, XDims: []uint64{4, 131, 4, 24, 413}, XNNZ: 262218, XBlocks: 12345, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 2}, CModesY: []int{0, 2}, XDensity: 6.3e-3, YDensity: 6.9e-3},
	{ID: 5, XDims: []uint64{131, 4, 413, 36, 4}, XNNZ: 377629, XBlocks: 17594, YDims: []uint64{36, 24, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 4.8e-3, YDensity: 5.9e-3},
	{ID: 6, XDims: []uint64{4, 131, 4, 24, 413}, XNNZ: 268813, XBlocks: 13288, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 2}, CModesY: []int{0, 2}, XDensity: 6.4e-3, YDensity: 6.9e-3},
	{ID: 7, XDims: []uint64{131, 4, 413, 36, 4}, XNNZ: 388132, XBlocks: 19367, YDims: []uint64{36, 24, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 5.2e-3, YDensity: 5.9e-3},
	{ID: 8, XDims: []uint64{4, 4, 131, 24, 413}, XNNZ: 268813, XBlocks: 13288, YDims: []uint64{24, 36, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 1}, CModesY: []int{0, 2}, XDensity: 6.5e-3, YDensity: 6.9e-3},
	{ID: 9, XDims: []uint64{4, 131, 413, 36, 4}, XNNZ: 388132, XBlocks: 19367, YDims: []uint64{36, 24, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 4}, CModesY: []int{0, 2}, XDensity: 5.2e-3, YDensity: 5.9e-3},
	{ID: 10, XDims: []uint64{4, 110, 4, 36, 486}, XNNZ: 396193, XBlocks: 17152, YDims: []uint64{36, 24, 4, 4}, YNNZ: 360, YBlocks: 218, CModesX: []int{3, 2}, CModesY: []int{0, 2}, XDensity: 6.4e-3, YDensity: 5.9e-3},
}

// hubbardPartition splits a mode of size d into quantum-number sectors of
// size 4 (plus a remainder). Size 4 matches the average block extents the
// Table 4 block counts and densities imply (~4^order elements per block,
// with ~0.5-2% of in-block elements surviving the 1e-8 cutoff — the
// element-wise sparsity inside dense blocks that Fig. 5 exploits). The same
// function is used for every tensor, so paired contract modes always have
// identical partitions.
func hubbardPartition(d uint64) []uint64 {
	var parts []uint64
	for d >= 4 {
		parts = append(parts, 4)
		d -= 4
	}
	if d > 0 {
		parts = append(parts, d)
	}
	return parts
}

// Hubbard synthesizes the SpTC pair for Table 4 row id (1-based). Blocks
// are distinct random sector tuples; inside each block, elements exceed the
// 1e-8 cutoff with the probability that makes the expected post-cutoff
// non-zero count match the table.
//
// scale caps X's non-zero target, as sptc-bench's -scale does for presets:
// below the row's XNNZ, X keeps its dims, block extents and in-block
// density and draws only scale/XNNZ of its blocks. scale <= 0 or
// scale >= XNNZ is the paper's size. Y (360 non-zeros) is never scaled.
func Hubbard(id, scale int, seed int64) (x, y *blocksparse.Tensor, spec HubbardSpec, err error) {
	if id < 1 || id > len(HubbardSpecs) {
		return nil, nil, HubbardSpec{}, fmt.Errorf("gen: Hubbard id %d out of range [1,%d]", id, len(HubbardSpecs))
	}
	spec = HubbardSpecs[id-1]
	frac := 1.0
	if scale > 0 && scale < spec.XNNZ {
		frac = float64(scale) / float64(spec.XNNZ)
	}
	rng := rand.New(rand.NewSource(seed + int64(id)*7919))
	if x, err = hubbardTensor(spec.XDims, spec.XBlocks, spec.XNNZ, frac, rng); err != nil {
		return nil, nil, spec, err
	}
	if y, err = hubbardTensor(spec.YDims, spec.YBlocks, spec.YNNZ, 1, rng); err != nil {
		return nil, nil, spec, err
	}
	return x, y, spec, nil
}

// hubbardTensor draws frac of the row's blocks (after capping them at the
// partition's sector-tuple space) with frac of its non-zeros, so the
// in-block fill does not depend on frac.
func hubbardTensor(dims []uint64, nblocks, nnz int, frac float64, rng *rand.Rand) (*blocksparse.Tensor, error) {
	parts := make([][]uint64, len(dims))
	secCount := make([]int, len(dims))
	possible := 1.0
	for m, d := range dims {
		parts[m] = hubbardPartition(d)
		secCount[m] = len(parts[m])
		possible *= float64(secCount[m])
	}
	// The real quantum-number partitions are irregular and admit more
	// sector tuples than our uniform size-4 partition; when the table asks
	// for more blocks than exist, take them all (the generated counts are
	// reported next to the targets by sptc-bench -exp table4).
	if float64(nblocks) > possible {
		nblocks = int(possible)
	}
	if frac < 1 {
		nblocks = max(1, int(math.Round(frac*float64(nblocks))))
		nnz = max(1, int(math.Round(frac*float64(nnz))))
	}
	t, err := blocksparse.New(parts)
	if err != nil {
		return nil, err
	}
	// Draw distinct sector tuples.
	chosen := make(map[string]bool, nblocks)
	sec := make([]uint32, len(dims))
	capacity := 0
	var secs [][]uint32
	for len(secs) < nblocks {
		key := ""
		for m := range dims {
			sec[m] = uint32(rng.Intn(secCount[m]))
			key += fmt.Sprintf("%d,", sec[m])
		}
		if chosen[key] {
			continue
		}
		chosen[key] = true
		s := append([]uint32(nil), sec...)
		secs = append(secs, s)
		capacity += t.BlockElems(s)
	}
	fill := float64(nnz) / float64(capacity)
	if fill > 1 {
		fill = 1
	}
	for _, s := range secs {
		data := make([]float64, t.BlockElems(s))
		for i := range data {
			if rng.Float64() < fill {
				data[i] = (0.1 + 0.9*rng.Float64()) * sign(rng)
			} else {
				// Below the cutoff: present in the dense block but
				// truncated away in the element-wise view.
				data[i] = 1e-10 * rng.Float64() * sign(rng)
			}
		}
		if err := t.SetBlock(s, data); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}
