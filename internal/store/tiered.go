package store

import (
	"context"
	"sync/atomic"
)

// Tiered composes the tiers into the store consumers use: the memory LRU
// and a single-flight layer deduplicating concurrent identical
// computations. The top-level Hits/Misses invariant is the one the
// serving layer's /metrics cache figures depend on: Misses counts
// evaluations actually performed, Hits counts lookups served from memory
// or by a shared in-flight computation.
//
// The store times nothing itself: a probe or a write takes well under a
// microsecond, so a clock read and a histogram sample per call would
// cost more than the call. Callers time whole batches of calls instead,
// as the dse sweep window does with its probe and finish stages.
type Tiered[V any] struct {
	mem    memory[V]
	flight Flight

	// hits/misses are the top-level outcome counters (free-running
	// atomics; the per-tier consistent snapshots live in TierStats).
	hits, misses counter
}

// counter is an atomic tally that also accepts negative deltas, which
// ComputeWindow uses to re-balance a Get-counted miss into a hit.
type counter struct{ v atomic.Uint64 }

func (c *counter) add(d int64)  { c.v.Add(uint64(d)) }
func (c *counter) load() uint64 { return c.v.Load() }

// NewTiered returns a store whose memory tier holds up to capacity
// entries (raised to at least one per shard) and charges each entry 16
// bytes of key plus size(value) in its Bytes figure.
func NewTiered[V any](capacity int, size func(V) int) *Tiered[V] {
	t := &Tiered[V]{}
	t.mem.init(capacity, size)
	return t
}

// Get probes the memory tier, counting the lookup as a hit or a miss.
// ctx is not used; the parameter stays for the callers that pass one.
func (t *Tiered[V]) Get(_ context.Context, k Key) (V, bool) {
	var v V
	ok := t.GetInto(k, &v)
	return v, ok
}

// GetInto is Get writing a hit's value to *dst, the one copy out of the
// memory tier, and leaving *dst untouched on a miss: a large V returned
// by value would be copied again by each caller on its way to where it
// is kept.
func (t *Tiered[V]) GetInto(k Key, dst *V) bool {
	ok := t.mem.get(k, dst)
	if ok {
		t.hits.add(1)
	} else {
		t.misses.add(1)
	}
	return ok
}

// Put writes v to the memory tier. ctx is not used; the parameter stays
// for the callers that pass one.
func (t *Tiered[V]) Put(_ context.Context, k Key, v V) {
	t.mem.put(k, v)
}

// WindowBuf is ComputeWindow's scratch space. A caller owns one and
// reuses it across windows, so a window allocates nothing but the done
// channel of its claim. The zero value is ready to use.
type WindowBuf struct {
	wait          []chan struct{}
	claimed       []Key
	pending, next []int
	lead          []int
}

// ComputeWindow completes a window of Get misses: keys are the keys the
// caller's Gets missed, and each ends up computed here, served, or (only
// when ctx ends) unresolved.
//
//   - In one critical section it claims every key no other caller is
//     computing and follows the rest.
//   - It re-probes memory for each claimed key, since a racing leader may
//     have filled it after the Get, and serves the ones it finds.
//   - It calls compute once with the positions (into keys) still missing.
//     compute must Put every value it computes before returning; a
//     position it fails leaves no value.
//   - It releases every claimed key, computed or not, before it waits on
//     any key it follows. Two windows that each lead part of the other's
//     keys therefore cannot deadlock.
//   - A followed key whose leader stored a value is served from memory.
//     One whose leader failed or was cancelled is claimed again, under
//     ctx, and the steps repeat.
//
// serve receives every position resolved without a local computation:
// shared is false for a memory hit on re-probe and true for a value
// another caller computed. Each served position turns its Get's miss
// into a hit, keeping Stats.Misses equal to the computations performed.
// ComputeWindow returns ctx's error when ctx ends first.
func (t *Tiered[V]) ComputeWindow(ctx context.Context, keys []Key, buf *WindowBuf, compute func(lead []int), serve func(i int, v V, shared bool)) error {
	buf.pending = buf.pending[:0]
	for i := range keys {
		buf.pending = append(buf.pending, i)
	}
	for len(buf.pending) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf.claimed = buf.claimed[:0]
		for _, i := range buf.pending {
			buf.claimed = append(buf.claimed, keys[i])
		}
		if cap(buf.wait) < len(keys) {
			buf.wait = make([]chan struct{}, len(keys))
		}
		wait := buf.wait[:len(buf.claimed)]
		done := t.claim(buf.claimed, wait)

		buf.lead = buf.lead[:0]
		for j, i := range buf.pending {
			if wait[j] != nil {
				continue
			}
			var v V
			if t.mem.get(keys[i], &v) {
				t.served()
				serve(i, v, false)
				continue
			}
			buf.lead = append(buf.lead, i)
		}
		if len(buf.lead) > 0 {
			compute(buf.lead)
		}
		t.release(buf.claimed, wait, done)

		buf.next = buf.next[:0]
		for j, i := range buf.pending {
			if wait[j] == nil {
				continue
			}
			select {
			case <-wait[j]:
			case <-ctx.Done():
				return ctx.Err()
			}
			var v V
			if t.mem.get(keys[i], &v) {
				t.flight.shares.Add(1)
				t.served()
				serve(i, v, true)
				continue
			}
			buf.next = append(buf.next, i)
		}
		buf.pending, buf.next = buf.next, buf.pending
	}
	return nil
}

// served re-balances a Get-counted miss into a hit: the value arrived
// without a local computation after all.
func (t *Tiered[V]) served() {
	t.hits.add(1)
	t.misses.add(-1)
}

// Stats aggregates the store's top-level outcomes: Hits are lookups
// served from memory (or a shared computation), Misses are performed
// computations; entry counts, capacity, eviction and byte figures come
// from one snapshot of the memory tier, taken with every shard lock
// held. Per-tier detail is in TierStats.
func (t *Tiered[V]) Stats() Stats {
	m := t.mem.stats()
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
		"mem":    t.mem.stats(),
		"flight": t.flight.Stats(),
	}
}
