// Package invariant provides assertion helpers for the documented invariants
// of the lock-free SpTC hot path — the properties PR 1 moved out of the type
// system and into comments: probe tables keep a free slot so probe sequences
// terminate, accumulators stay below load factor 1/2, the HtY build's key
// groups ascend strictly and their offsets tile the item arena, and LN
// encodes never exceed the radix cardinality checked at construction.
//
// Assertions compile to nothing by default. Building with `-tags assert`
// turns them into panics, which is how `make verify` runs the race tests of
// the hot packages:
//
//	go test -race -tags assert ./internal/hashtab ./internal/core
//
// Hot loops must gate their assertion blocks on the Enabled constant so the
// default build pays nothing — the compiler deletes the whole block:
//
//	if invariant.Enabled {
//		invariant.Assertf(probes <= max, "probe overrun: %d > %d", probes, max)
//	}
//
// Cold paths (construction, merge phases) may call Assert directly; the
// no-assert stubs are empty and inline away, but argument expressions are
// still evaluated, so anything with a measurable cost belongs behind Enabled.
package invariant
