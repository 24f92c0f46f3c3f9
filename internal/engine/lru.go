package engine

import (
	"container/list"

	"sparta/internal/core"
	"sparta/internal/invariant"
)

// planKey identifies one cached prepared plan: the content fingerprint of Y
// plus the only other thing that changes the built table, the contract-mode
// spec. Thread count is deliberately excluded (it changes build speed, not
// the table).
type planKey struct {
	fp    Fingerprint
	modes string // canonical "2,0"-style encoding of cmodesY
}

// lruEntry is one resident plan with its accounted size and last-touch
// generation (the recency witness the -tags assert build cross-checks
// against the list order).
type lruEntry struct {
	key   planKey
	prep  *core.PreparedY
	bytes uint64
	gen   uint64
}

// lruCache is a doubly-linked-list LRU over prepared plans with an entry
// cap and an optional byte budget. Not self-locking — the Engine serializes
// access (cache operations are pointer shuffles; the expensive work, the
// HtY build, happens outside the lock).
type lruCache struct {
	maxEntries int
	maxBytes   uint64 // 0 = no byte budget

	bytes uint64
	gen   uint64     // monotone touch counter; every hit or insert increments it
	ll    *list.List // front = most recently used
	items map[planKey]*list.Element
}

func newLRU(maxEntries int, maxBytes uint64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[planKey]*list.Element{},
	}
}

// get returns the plan for k, promoting it to most-recently-used.
func (c *lruCache) get(k planKey) (*core.PreparedY, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.touch(el.Value.(*lruEntry))
	if invariant.Enabled {
		c.checkRecency()
	}
	return el.Value.(*lruEntry).prep, true
}

// touch stamps e with the next generation. Generations only grow, so the
// recency list can be cross-checked against them under -tags assert: list
// order and generation order must never disagree.
func (c *lruCache) touch(e *lruEntry) {
	c.gen++
	e.gen = c.gen
}

// checkRecency asserts the cache's structural invariants: generations
// strictly decrease front to back (the list is exactly recency order), the
// map points at the list elements it indexes, and the byte gauge sums the
// resident entries.
func (c *lruCache) checkRecency() {
	last := ^uint64(0)
	var bytes uint64
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		invariant.Assertf(e.gen < last,
			"engine: LRU generations not monotone: gen %d follows gen %d", e.gen, last)
		invariant.Assertf(c.items[e.key] == el,
			"engine: LRU map does not point at the list element holding its key")
		last = e.gen
		bytes += e.bytes
		n++
	}
	invariant.Assertf(n == len(c.items),
		"engine: LRU list holds %d entries, map holds %d", n, len(c.items))
	invariant.Assertf(bytes == c.bytes,
		"engine: LRU byte gauge says %d, resident entries sum to %d", c.bytes, bytes)
}

// add inserts a plan (keeping an existing entry for the same key — the
// first build wins so concurrent preparers converge on one table) and
// evicts from the cold end until both budgets hold. It returns the plan
// now cached under k and the number of evictions.
func (c *lruCache) add(k planKey, prep *core.PreparedY) (*core.PreparedY, int) {
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.touch(el.Value.(*lruEntry))
		if invariant.Enabled {
			c.checkRecency()
		}
		return el.Value.(*lruEntry).prep, 0
	}
	e := &lruEntry{key: k, prep: prep, bytes: prep.Bytes()}
	c.touch(e)
	c.items[k] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.over() {
		back := c.ll.Back()
		if back == nil || back.Value.(*lruEntry).key == k {
			break // never evict the entry just inserted
		}
		c.remove(back)
		evicted++
	}
	if invariant.Enabled {
		c.checkRecency()
	}
	return prep, evicted
}

// over reports whether either budget is exceeded (an oversized single entry
// is allowed to stay — the cache must be able to hold the working plan).
func (c *lruCache) over() bool {
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1
}

func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
}

func (c *lruCache) len() int { return c.ll.Len() }
