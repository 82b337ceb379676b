package store

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Tiered composes the tiers into the store consumers use: a memory LRU
// and a single-flight layer deduplicating concurrent identical
// computations. The top-level Hits/Misses invariant is the one the
// serving layer's cache-delta accounting depends on: Misses counts
// evaluations actually performed, Hits counts lookups served from memory
// or by a shared in-flight computation.
//
// When a recorder is in ctx, memory probes and writes are timed into the
// store.get.mem and store.put.mem histogram stages, alongside the spans
// the callers already open.
type Tiered[V any] struct {
	mem    *Memory[V]
	flight Flight[V]

	// hits/misses are the top-level outcome counters (free-running
	// atomics; the per-tier consistent snapshots live in TierStats).
	hits, misses counter
}

// counter is an atomic tally that also accepts negative deltas, which
// Compute uses to re-balance a Get-counted miss into a hit.
type counter struct{ v atomic.Uint64 }

func (c *counter) add(d int64)  { c.v.Add(uint64(d)) }
func (c *counter) load() uint64 { return c.v.Load() }

// NewTiered returns a store over the given memory tier.
func NewTiered[V any](mem *Memory[V]) *Tiered[V] {
	return &Tiered[V]{mem: mem}
}

// lookup probes the memory tier without touching the top-level counters.
func (t *Tiered[V]) lookup(ctx context.Context, k Key) (V, Outcome, bool) {
	rec := obs.RecorderFrom(ctx)
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	v, ok := t.mem.Get(k)
	if rec != nil {
		rec.Observe("store.get.mem", time.Since(t0))
	}
	if ok {
		return v, HitMem, true
	}
	var zero V
	return zero, Miss, false
}

// Get probes the memory tier.
func (t *Tiered[V]) Get(ctx context.Context, k Key) (V, bool) {
	v, _, ok := t.Lookup(ctx, k)
	return v, ok
}

// Lookup is Get also reporting the outcome (HitMem, or Miss when absent)
// — for callers that record it, like the dse.evaluate span's cache
// attribute.
func (t *Tiered[V]) Lookup(ctx context.Context, k Key) (V, Outcome, bool) {
	v, out, ok := t.lookup(ctx, k)
	if ok {
		t.hits.add(1)
	} else {
		t.misses.add(1)
	}
	return v, out, ok
}

// Put writes v to the memory tier.
func (t *Tiered[V]) Put(ctx context.Context, k Key, v V) {
	rec := obs.RecorderFrom(ctx)
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	t.mem.Put(k, v)
	if rec != nil {
		rec.Observe("store.put.mem", time.Since(t0))
	}
}

// Compute completes a Get miss: it runs fn under the single-flight layer
// (concurrent identical computations share one execution), re-probes
// memory on winning leadership (a racing leader may have just filled
// it), and stores a freshly computed value. The Outcome reports what
// actually happened: Miss (fn ran here), HitMem (filled by a racer), or
// Shared (another caller's fn served us).
//
// Callers must pair Compute with an immediately preceding Get miss —
// Compute re-balances that Get's recorded miss into a hit when the value
// arrived without a local computation, keeping Stats.Misses equal to the
// number of evaluations actually performed.
func (t *Tiered[V]) Compute(ctx context.Context, k Key, fn func(context.Context) (V, error)) (V, Outcome, error) {
	out := Miss
	v, shared, err := t.flight.Do(ctx, k, func() (V, error) {
		if v, o, ok := t.lookup(ctx, k); ok {
			out = o
			return v, nil
		}
		v, err := fn(ctx)
		if err == nil {
			t.Put(ctx, k, v)
		}
		return v, err
	})
	if err != nil {
		return v, out, err
	}
	if shared {
		out = Shared
	}
	if out != Miss {
		// The preceding Get charged this probe as a miss, but no local
		// computation happened after all.
		t.hits.add(1)
		t.misses.add(-1)
	}
	return v, out, nil
}

// Stats aggregates the store's top-level outcomes: Hits are lookups
// served from memory (or a shared computation), Misses are performed
// computations; entry counts, capacity, eviction and byte figures come
// from the memory tier, whose snapshot consistency the underlying LRU
// guarantees. Per-tier detail is in TierStats.
func (t *Tiered[V]) Stats() Stats {
	m := t.mem.Stats()
	return Stats{
		Hits:      t.hits.load(),
		Misses:    t.misses.load(),
		Evictions: m.Evictions,
		Len:       m.Len,
		Capacity:  m.Capacity,
		Bytes:     m.Bytes,
	}
}

// TierStats reports each tier under its metrics name: "mem" and
// "flight".
func (t *Tiered[V]) TierStats() map[string]Stats {
	return map[string]Stats{
		"mem":    t.mem.Stats(),
		"flight": t.flight.Stats(),
	}
}
