// Package store is the repo's content-addressed result store: one home
// for every cache the evaluation pipeline used to scatter across layers
// (the dse point LRU, the batch miss router, the search visit archive,
// the perf component memo). Results are addressed by 128-bit content
// keys built from the IR hashes of their inputs (ir.ConfigHash /
// ir.WorkloadHash), so a result is location-independent: any caller that
// can derive the key can reuse the result.
//
// The store composes two tiers behind one interface (Tiered):
//
//   - Memory: the sharded LRU from internal/lru, adapted (not duplicated)
//     to Key addressing. Hot, bounded, per-process.
//   - Flight: single-flight deduplication of identical in-flight
//     computations — N concurrent identical sweeps share one evaluation.
//
// Each tier also stands alone: search.Runner uses a bare Memory tier as
// its no-eviction visit archive.
//
// Evaluated points are never persisted: on the analytic model a design
// costs microseconds to evaluate, so recomputing beats decoding. The one
// durable mechanism is Files, a named-entry map in a checksummed,
// versioned container format that the server's job journal is built on.
package store

// Key is a 128-bit content address. By module convention Hi is the
// configuration content hash and Lo the workload content hash, but the
// store treats the pair as opaque: equal keys mean interchangeable
// results. Key-producing functions are checked by acrlint's memokey
// analyzer the same way content hashes are — every tracked input field
// must fold into the key.
type Key struct {
	Hi, Lo uint64
}

// String renders the key as 16 hex digits, '-', 16 hex digits — the
// exact legacy dse cache-key format, so the memory tier's LRU keys are
// stable across the refactor. Manual encoding keeps a warm cache probe
// at a single allocation (fmt.Sprintf costs three).
func (k Key) String() string {
	const hex = "0123456789abcdef"
	var b [33]byte
	for i := 0; i < 16; i++ {
		b[15-i] = hex[(k.Hi>>(4*i))&0xf]
		b[32-i] = hex[(k.Lo>>(4*i))&0xf]
	}
	b[16] = '-'
	return string(b[:])
}

// Stats is one tier's effectiveness snapshot — the shape every tier
// (memory, flight, and perf's component memo tables) reports, so
// /metrics can expose the whole cache stack uniformly.
type Stats struct {
	// Hits and Misses count lookup outcomes since construction. For the
	// flight tier, Hits counts followers served by a shared computation
	// and Misses counts leader computations.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by a size bound.
	Evictions uint64 `json:"evictions"`
	// Len is the current entry count, Capacity the configured bound
	// (0 = unbounded).
	Len      int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes approximates the tier's resident size: shallow value bytes
	// plus key bytes for the memory tier.
	Bytes int64 `json:"bytes"`
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Outcome says which tier served (or failed to serve) a lookup.
type Outcome uint8

const (
	// Miss: no tier had the value; the caller computed it.
	Miss Outcome = iota
	// HitMem: served by the memory LRU.
	HitMem
	// Shared: served by another caller's in-flight computation.
	Shared
)

// String renders the outcome in the vocabulary dse.evaluate spans use
// for their "cache" attribute ("hit" predates the tiers).
func (o Outcome) String() string {
	switch o {
	case HitMem:
		return "hit"
	case Shared:
		return "flight"
	default:
		return "miss"
	}
}
