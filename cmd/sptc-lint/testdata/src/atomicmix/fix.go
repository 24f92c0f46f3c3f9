// Package atomicmix is the atomicmix analyzer fixture: slot.key is a
// CAS-claimed hash-table key field, mixed with plain reads and writes.
package atomicmix

import "sync/atomic"

type slot struct {
	key  uint64
	rank int32
}

type table struct {
	slots []slot
}

func (t *table) claim(i int, k uint64) bool {
	return atomic.CompareAndSwapUint64(&t.slots[i].key, 0, k)
}

func (t *table) atomicRead(i int) uint64 {
	return atomic.LoadUint64(&t.slots[i].key)
}

func (t *table) plainRead(i int) uint64 {
	return t.slots[i].key // want 20 "field slot.key is accessed with sync/atomic"
}

func (t *table) plainWrite(i int, k uint64) {
	t.slots[i].key = k // want 13 "field slot.key is accessed with sync/atomic"
}

func (t *table) rankRead(i int) int32 {
	return t.slots[i].rank // clean: rank is never touched atomically
}

func (t *table) justified(i int) uint64 {
	//lint:ignore atomicmix read-only phase; the build's parallel.For barrier happens-before
	return t.slots[i].key
}
