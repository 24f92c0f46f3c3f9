// Package hashtab implements the two hash tables at the heart of Sparta
// (§3.3, §3.4): HtY, the hash-table representation of the second input
// tensor keyed by the large-number (LN) encoding of its contract indices,
// and HtA, the hash-table accumulator keyed by the LN encoding of Y's free
// indices. Both use integer keys so key matching is a single comparison.
package hashtab

// YItem is one non-zero of Y under a given contract key: the LN encoding of
// its free indices plus its value. Items with the same key are contiguous in
// the HtYFlat arena, preserving the spatial locality sorted COO would have.
type YItem struct {
	LNFree uint64
	Val    float64
}

// hashKey mixes an LN key into a bucket index; splitmix64 finalizer.
func hashKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// NextPow2 returns the smallest power of two >= n (min 1). It is the single
// source of truth for every power-of-two table sizing in the repo (HtY
// buckets, HtA slots, Eq. 6 estimates in package core).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// EstimateHtYBytes is Eq. 5: Size_ep*#Buckets + nnz_Y*(Size_idx*N_Y +
// Size_val + Size_ep). Computable before the build from tensor features
// alone, which is what lets the heterogeneous-memory planner place HtY
// before it exists.
func EstimateHtYBytes(nnzY, orderY, buckets int) uint64 {
	const sizeEP = 8  // entry pointer
	const sizeIdx = 8 // paper counts one index word per mode
	const sizeVal = 8
	return uint64(buckets)*sizeEP + uint64(nnzY)*(sizeIdx*uint64(orderY)+sizeVal+sizeEP)
}

// EstimateHtABytes is Eq. 6: the upper bound Size_ep*#Buckets +
// nnz_Fmax(X) * nnz_Fmax(Y) * (Size_idx*|F_Y| + Size_val + Size_ep).
func EstimateHtABytes(buckets, nnzFmaxX, nnzFmaxY, freeModesY int) uint64 {
	const sizeEP = 8
	const sizeIdx = 8
	const sizeVal = 8
	return uint64(buckets)*sizeEP +
		uint64(nnzFmaxX)*uint64(nnzFmaxY)*(sizeIdx*uint64(freeModesY)+sizeVal+sizeEP)
}
