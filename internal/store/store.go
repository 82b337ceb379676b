// Package store is the repo's content-addressed result store: the one
// memo layer the evaluation pipeline uses, holding the dse point cache.
// Results are addressed by 128-bit content keys built from the IR hashes
// of their inputs (ir.ConfigHash / ir.WorkloadHash), so a result is
// location-independent: any caller that can derive the key can reuse the
// result.
//
// The point store is one type, Tiered: a sharded LRU over map[Key],
// bounded in entries and byte-accounted, per process; dse.PointStore
// keeps one compact record per evaluated design in it. It does not
// deduplicate concurrent computations: on the analytic model a design
// costs microseconds, so two sweeps that miss the same key each evaluate
// it, and the second Put refreshes the entry the first wrote.
//
// Evaluated points are never persisted: recomputing beats decoding. The
// one durable mechanism is Files, a named-entry map in a checksummed,
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

// Stats is the point store's effectiveness snapshot, taken with every
// shard lock held so its fields describe one instant.
type Stats struct {
	// Hits and Misses count lookup outcomes since construction: each Get
	// or GetInto counts once.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by a size bound.
	Evictions uint64 `json:"evictions"`
	// Len is the current entry count, Capacity the configured bound.
	Len      int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes approximates the store's resident size: each entry's 16-byte
	// key plus its value's estimated size.
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
