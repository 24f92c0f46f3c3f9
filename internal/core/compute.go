package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"sparta/internal/coo"
	"sparta/internal/hashtab"
	"sparta/internal/obs"
	"sparta/internal/spa"
)

// zsub records that one X sub-tensor contributed n consecutive output
// non-zeros to a Zlocal chunk.
type zsub struct {
	f int32
	n int32
}

// zchunk is one fixed-capacity block of a thread's Zlocal: the runs flushed
// into it, back to back, with len(lns) == len(vals) == Σ subs[i].n. A run
// never straddles two chunks, so the gathers sort and scatter chunk by
// chunk, and storage is written once and never moved.
type zchunk struct {
	subs []zsub
	lns  []uint64
	vals []float64
}

// zchunkMin and zchunkMax bound a chunk's entry capacity. A worker's first
// chunk holds zchunkMin entries and each further one doubles up to
// zchunkMax, so a contraction with a thousand outputs pays 16 KB per thread
// and an output-heavy one wastes at most one half-filled 512 KB chunk.
// zchunkMax is a variable only so tests can lower it to force many small
// chunks (setChunkCap in zlocal_test.go); library code never writes it.
const zchunkMin = 1 << 10

var zchunkMax = 1 << 15

// zlocalBuf is the thread-local dynamic output buffer Zlocal from §3.4/§3.5
// as a chunk list: free-Y keys and values appended sub-tensor by sub-tensor
// into fixed chunks; the free-X coordinates are recovered from X via the
// sub-tensor id during gather. Growing allocates one more chunk instead of
// reallocating and copying what is already buffered, which is what made the
// former append-doubling vectors allocate ~5x the output.
type zlocalBuf struct {
	// chunks[:used] hold the buffered runs in flush order; chunks[used:]
	// are spares kept by reset for the next streamed window.
	chunks []zchunk
	used   int
	n      int // entries buffered in chunks[:used]

	// limit, when non-nil, is the contraction-wide MaxOutputNNZ account
	// shared by all workers; counted is how many of this buffer's entries
	// it already holds.
	limit   *outputLimit
	counted int
}

// outputLimit enforces Options.MaxOutputNNZ while Zlocal fills: each worker
// adds what it buffered since its last report whenever it opens a chunk, so
// an over-limit contraction stops within threads × chunk entries of the
// bound instead of after the whole output is buffered. Contended once per
// chunk, not per run.
type outputLimit struct {
	max   int
	total atomic.Int64
}

// report adds the entries buffered since the last report to the shared
// account and returns its new value.
func (z *zlocalBuf) report() int {
	got := int(z.limit.total.Add(int64(z.n - z.counted)))
	z.counted = z.n
	return got
}

// live returns the chunks holding this window's runs, spares excluded.
func (z *zlocalBuf) live() []zchunk { return z.chunks[:z.used] }

// bytes is the buffer's footprint: the capacity of every chunk it owns,
// spares included.
func (z *zlocalBuf) bytes() uint64 {
	var b uint64
	for i := range z.chunks {
		c := &z.chunks[i]
		b += uint64(cap(c.subs))*8 + uint64(cap(c.lns))*8 + uint64(cap(c.vals))*8
	}
	return b
}

// reset empties the buffer and keeps every chunk as a spare; the streaming
// driver calls it between windows so one window's worth of Zlocal is the
// steady-state footprint regardless of how many windows the contraction
// spans.
func (z *zlocalBuf) reset() {
	z.used, z.n, z.counted = 0, 0, 0
}

// room returns the chunk the next run of n entries goes into: the current
// one while the run fits, else a newly opened one.
func (z *zlocalBuf) room(n int) (*zchunk, error) {
	if i := z.used - 1; uint(i) < uint(len(z.chunks)) {
		if c := &z.chunks[i]; cap(c.lns)-len(c.lns) >= n {
			return c, nil
		}
	}
	return z.open(n)
}

// open makes chunks[used] an empty chunk with room for n entries — a spare
// when one is large enough, else a new allocation of the next ramp size (or
// exactly n for a run larger than zchunkMax, which gets a chunk of its own).
func (z *zlocalBuf) open(n int) (*zchunk, error) {
	if z.limit != nil {
		if got := z.report(); got > z.limit.max {
			return nil, &OutputTooLargeError{Got: got, Limit: z.limit.max}
		}
	}
	at := -1
	for i := z.used; i < len(z.chunks); i++ {
		if cap(z.chunks[i].lns) >= n {
			at = i
			break
		}
	}
	if at < 0 {
		size := zchunkMax
		if k := len(z.chunks); k < 32 && zchunkMin<<k < size {
			size = zchunkMin << k
		}
		if n > size {
			size = n
		}
		z.chunks = append(z.chunks, zchunk{
			subs: make([]zsub, 0, size/16+1),
			lns:  make([]uint64, 0, size),
			vals: make([]float64, 0, size),
		})
		at = len(z.chunks) - 1
	}
	z.chunks[z.used], z.chunks[at] = z.chunks[at], z.chunks[z.used]
	c := &z.chunks[z.used]
	c.subs, c.lns, c.vals = c.subs[:0], c.lns[:0], c.vals[:0]
	z.used++
	return c, nil
}

// match is one X non-zero with a resolved Y item list (Sparta path).
type match struct {
	items []hashtab.YItem
	xv    float64
}

// rangeMatch is one X non-zero with a resolved COO-Y range (baseline paths).
type rangeMatch struct {
	lo, hi int
	xv     float64
}

// worker is the per-thread state of the computation stages. Exactly one of
// hta/spa is non-nil, selected by Options.Algorithm and pointing into acc;
// each algorithm's sub-tensor loop calls its accumulator's concrete Add (no
// interface dispatch on the hottest call in the repo). dense is AlgSparta's
// second accumulator, allocated by the first sub-tensor that qualifies for
// it (dense.go) and kept for the rest of the contraction.
//
// The accumulator headers are stored in the worker rather than allocated
// beside it: their entry counts and hit/probe counters are written on every
// product, and as separate small objects two workers' headers landed in one
// size-class span, a cache line apart at best (DESIGN.md §9.1).
type worker struct {
	hta *hashtab.HtAFlat
	spa *spa.SPA
	acc struct {
		hta hashtab.HtAFlat
		spa spa.SPA
	}
	dense denseAcc
	z     zlocalBuf

	// err is the first writeback failure (output over MaxOutputNNZ, a run
	// too long for zsub); once set the drivers' sub-tensor loops skip this
	// worker's remaining claims and return it after the parallel section.
	err error

	scratch  []match
	found    int // products of the matches in scratch: Σ len(items)
	scratchR []rangeMatch
	keyBuf   []uint32

	// mark is the stage clock: the reading taken at the last stage boundary
	// (startClock, stamp), which is where the interval now open began.
	mark                       int64
	searchNS, accumNS, writeNS int64
	searchSteps                uint64
	probesHtY                  uint64
	hits, miss                 uint64
	products                   uint64
	spaHits, spaMiss           uint64
	// The dense path's account: sub-tensors that took it, the products they
	// added (each one a hit or a miss, and one probe), and the cells they
	// occupied first (the misses), counted at flush.
	denseSubs, denseAdds, denseMiss uint64

	// htyProbe records the probe length of each HtY lookup when metrics are
	// configured (Options.Metrics); nil otherwise, guarded by one branch in
	// the search loops. Thread-private like the rest of the worker, merged
	// into the registry by publishMetrics after the parallel section.
	// Lengths below len(probeTally) — all of them, on a table at its design
	// load — are counted in probeTally[length], one increment a lookup, and
	// reach the shard in bulk when stopClock ends the chunk of sub-tensors.
	htyProbe   *obs.HistShard
	probeTally [16]uint64
}

// workerLine is the isolation unit of the worker arena: two 64-byte cache
// lines, because the adjacent-line prefetcher pairs them.
const workerLine = 128

// workerSlot is one element of the worker arena. The trailing pad is at
// least workerLine bytes and rounds the element to a multiple of it, so
// whatever the arena's base alignment no byte one worker writes shares a
// line pair with a byte its neighbour writes.
type workerSlot struct {
	worker
	_ [workerLine + (workerLine-unsafe.Sizeof(worker{})%workerLine)%workerLine]byte
}

// htaCapHint pre-sizes each worker's accumulator; it grows from there.
const htaCapHint = 1024

// AccumBuckets is the slot count every worker's hash accumulator starts
// with, the #Buckets Eq. 6 charges HtA before a contraction runs.
func AccumBuckets() int { return hashtab.HtASlots(htaCapHint) }

// makeWorkers builds the per-thread state of one contraction in a single
// arena allocation and returns a pointer to each element.
func makeWorkers(threads int, p *plan, opt Options) []*worker {
	arena := make([]workerSlot, threads)
	ws := make([]*worker, threads)
	var limit *outputLimit
	if opt.MaxOutputNNZ > 0 {
		limit = &outputLimit{max: opt.MaxOutputNNZ}
	}
	for i := range arena {
		w := &arena[i].worker
		w.keyBuf = make([]uint32, p.nfy)
		w.z.limit = limit
		switch opt.Algorithm {
		case AlgSparta, AlgCOOHtA:
			w.acc.hta = *hashtab.NewHtAFlat(htaCapHint)
			w.hta = &w.acc.hta
		case AlgSPA:
			w.acc.spa = *spa.New(p.nfy)
			w.spa = &w.acc.spa
		}
		if opt.Metrics != nil {
			w.htyProbe = obs.NewHistShard(obs.ProbeBuckets)
			if w.hta != nil {
				w.hta.ProbeHist = obs.NewHistShard(obs.ProbeBuckets)
			}
		}
		ws[i] = w
	}
	return ws
}

// clockOrigin anchors stageNow; only differences of readings are used.
var clockOrigin = time.Now()

// stageNow reads the monotonic clock in nanoseconds. A variable only so the
// clock-budget test can count the reads; library code never assigns it.
var stageNow = func() int64 { return int64(time.Since(clockOrigin)) }

// gatherNow is the clock each writeback gather goroutine reads once at the
// start and once at the end of its busy interval. A variable of its own so a
// test can stub it without touching the stage clock's read budget.
var gatherNow = func() int64 { return int64(time.Since(clockOrigin)) }

// The stage clock. A worker times a chunk of sub-tensors with one chain of
// readings: startClock opens the first search interval, each stamp closes
// the open interval into a stage and opens the next at the same reading, so
// the end of one sub-tensor's ④ is the start of the next one's ②, and
// stopClock closes whatever is open when the chunk ends. A sub-tensor with
// no match in Y returns before its first stamp: its search time stays in the
// open interval and reaches searchNS with the next stamp, so the three
// stage totals still add up to the chunk's wall time exactly, at no clock
// read for the sub-tensors (most of them, on a sparse Y) that only search.

func (w *worker) startClock() { w.mark = stageNow() }

func (w *worker) stamp(stageNS *int64) {
	t := stageNow()
	*stageNS += t - w.mark
	w.mark = t
}

func (w *worker) stopClock() {
	w.stamp(&w.searchNS)
	if w.htyProbe == nil {
		return
	}
	for length, n := range w.probeTally {
		if n > 0 {
			w.htyProbe.ObserveN(float64(length), n)
			w.probeTally[length] = 0
		}
	}
}

// searchHtY is stage ② of Algorithm 2 for X non-zeros [lo, hi): one HtY
// probe each, the hits collected in w.scratch and their products counted in
// w.found. It reports whether there are any.
func (w *worker) searchHtY(p *plan, xw *coo.Tensor, hty *hashtab.HtYFlat, lo, hi int) bool {
	cCols := xw.Inds[p.nfx:]
	w.scratch = w.scratch[:0]
	found := 0
	for i := lo; i < hi; i++ {
		key := p.radC.EncodeStrided(cCols, i)
		items, probes := hty.Lookup(key)
		w.probesHtY += uint64(probes)
		if w.htyProbe != nil {
			if uint(probes) < uint(len(w.probeTally)) {
				w.probeTally[probes]++
			} else {
				w.htyProbe.Observe(float64(probes))
			}
		}
		if items == nil {
			w.miss++
			continue
		}
		w.hits++
		found += len(items)
		w.scratch = append(w.scratch, match{items: items, xv: xw.Vals[i]})
	}
	w.found = found
	return len(w.scratch) > 0
}

// accumulateHtY is stage ③ of Algorithm 2: every product of the matches in
// w.scratch goes into the hash accumulator.
func (w *worker) accumulateHtY() {
	for _, m := range w.scratch {
		v := m.xv
		for _, it := range m.items {
			w.hta.Add(it.LNFree, it.Val*v)
		}
	}
	w.products += uint64(w.found)
}

// subSparta processes X sub-tensor f with Algorithm 2: HtY probes for the
// index search, HtA — or, when useDense says this sub-tensor's products fill
// a small free-Y space, the direct-indexed array — for accumulation, Zlocal
// flush for writeback. The stage clock times the three phases separately so
// Fig. 2-style breakdowns are exact.
func (w *worker) subSparta(p *plan, xw *coo.Tensor, hty *hashtab.HtYFlat, ptrFX []int, f int) {
	if !w.searchHtY(p, xw, hty, ptrFX[f], ptrFX[f+1]) {
		return
	}
	w.stamp(&w.searchNS)
	if card := p.radFY.Card(); useDense(card, w.found) {
		if w.dense.vals == nil {
			w.dense.init(card)
		}
		w.accumulateDense()
		w.stamp(&w.accumNS)
		w.flushDense(f)
	} else {
		w.accumulateHtY()
		w.stamp(&w.accumNS)
		w.flushHtA(f)
	}
	w.stamp(&w.writeNS)
}

// searchCOOY performs the baseline linear index search (Algorithm 1): scan
// the distinct contract-key runs of the sorted COO Y until the key matches
// or exceeds the probe. Each run inspection counts one search step; the
// worst case is O(distinct keys) ~ O(nnz_Y) per X non-zero.
func (w *worker) searchCOOY(p *plan, xw, yw *coo.Tensor, ptrCY []int, i int) (int, int, bool) {
	cColsX := xw.Inds[p.nfx:]
	cColsY := yw.Inds[:p.ncm]
	for r := 0; r+1 < len(ptrCY); r++ {
		w.searchSteps++
		at := ptrCY[r]
		cmp := 0
		for m := 0; m < p.ncm; m++ {
			a, b := cColsY[m][at], cColsX[m][i]
			if a != b {
				if a < b {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		if cmp == 0 {
			return ptrCY[r], ptrCY[r+1], true
		}
		if cmp > 0 {
			return 0, 0, false // sorted: key exceeded the probe
		}
	}
	return 0, 0, false
}

// searchSubCOOY is stage ② of the COO-Y baselines for X non-zeros [lo, hi):
// one linear search each, the hits collected in w.scratchR. It reports
// whether there are any.
func (w *worker) searchSubCOOY(p *plan, xw, yw *coo.Tensor, ptrCY []int, lo, hi int) bool {
	w.scratchR = w.scratchR[:0]
	for i := lo; i < hi; i++ {
		ylo, yhi, ok := w.searchCOOY(p, xw, yw, ptrCY, i)
		if !ok {
			w.miss++
			continue
		}
		w.hits++
		w.scratchR = append(w.scratchR, rangeMatch{lo: ylo, hi: yhi, xv: xw.Vals[i]})
	}
	return len(w.scratchR) > 0
}

// subCOOHtA processes X sub-tensor f with COO-Y linear search + HtA.
func (w *worker) subCOOHtA(p *plan, xw, yw *coo.Tensor, ptrFX, ptrCY []int, f int) {
	if !w.searchSubCOOY(p, xw, yw, ptrCY, ptrFX[f], ptrFX[f+1]) {
		return
	}
	w.stamp(&w.searchNS)

	fCols := yw.Inds[p.ncm:]
	for _, m := range w.scratchR {
		v := m.xv
		for j := m.lo; j < m.hi; j++ {
			w.hta.Add(p.radFY.EncodeStrided(fCols, j), yw.Vals[j]*v)
		}
		w.products += uint64(m.hi - m.lo)
	}
	w.stamp(&w.accumNS)

	w.flushHtA(f)
	w.stamp(&w.writeNS)
}

// subSPA processes X sub-tensor f with Algorithm 1: COO-Y linear search +
// vector SPA keyed by the raw free-index tuple of Y.
func (w *worker) subSPA(p *plan, xw, yw *coo.Tensor, ptrFX, ptrCY []int, f int) {
	if !w.searchSubCOOY(p, xw, yw, ptrCY, ptrFX[f], ptrFX[f+1]) {
		return
	}
	w.stamp(&w.searchNS)

	fCols := yw.Inds[p.ncm:]
	for _, m := range w.scratchR {
		v := m.xv
		for j := m.lo; j < m.hi; j++ {
			before := w.spa.Len()
			for k := 0; k < p.nfy; k++ {
				w.keyBuf[k] = fCols[k][j]
			}
			w.spa.Add(w.keyBuf, yw.Vals[j]*v)
			if w.spa.Len() == before {
				w.spaHits++
			} else {
				w.spaMiss++
			}
		}
		w.products += uint64(m.hi - m.lo)
	}
	w.stamp(&w.accumNS)

	w.flushSPA(p, f)
	w.stamp(&w.writeNS)
}

// flushHtA appends the accumulator contents to Zlocal as one run and resets
// it. The appends never reallocate: room reserved the run's capacity.
func (w *worker) flushHtA(f int) {
	keys, vals := w.hta.Keys(), w.hta.Vals()
	if c := w.openRun(f, len(keys)); c != nil {
		c.lns = append(c.lns, keys...)
		c.vals = append(c.vals, vals...)
	}
	w.hta.Reset()
}

// flushSPA appends the SPA contents (LN-encoding each tuple once) and
// resets it.
func (w *worker) flushSPA(p *plan, f int) {
	n := w.spa.Len()
	if c := w.openRun(f, n); c != nil {
		for i := 0; i < n; i++ {
			key, v := w.spa.Entry(i)
			c.lns = append(c.lns, p.radFY.Encode(key))
			c.vals = append(c.vals, v)
		}
	}
	w.spa.Reset()
}

// openRun records that sub-tensor f contributes a run of n entries and
// returns the chunk with room for them, or nil when there is nothing to
// write: an empty run, or a failure now held in w.err.
func (w *worker) openRun(f, n int) *zchunk {
	if n == 0 {
		return nil
	}
	if n > math.MaxInt32 {
		w.err = fmt.Errorf("%w: sub-tensor %d produced %d output non-zeros", ErrRunOverflow, f, n)
		return nil
	}
	c, err := w.z.room(n)
	if err != nil {
		w.err = err
		return nil
	}
	c.subs = append(c.subs, zsub{f: int32(f), n: int32(n)})
	w.z.n += n
	return c
}
