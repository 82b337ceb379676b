package store

import (
	"sync"
	"sync/atomic"
)

// Flight deduplicates identical in-flight computations a window of keys
// at a time: while one caller (the leader) computes a key's value,
// concurrent callers for the same key wait and then read the value the
// leader stored, instead of recomputing it. A caller claims all the keys
// of its window in one critical section, under one done channel, and
// releases them together (Tiered's claim and release). The zero value is
// ready to use.
//
// Unlike the classic singleflight, a leader's failure is not shared:
// failures here are usually the leader's own context cancellation, which
// says nothing about whether a follower (with a live context and maybe a
// later deadline) could succeed — so a follower that finds no value after
// its leader released retries for leadership and computes under its own
// context. Deterministic failures therefore cost one computation per
// caller, exactly what they cost without the flight layer.
type Flight struct {
	mu sync.Mutex
	// calls maps each key in flight to its leader window's done channel,
	// closed when the window releases its keys.
	calls map[Key]chan struct{}
	// leads counts keys led, shares followers served by another
	// caller's computation — reported as the tier's Misses and Hits.
	leads, shares atomic.Uint64
}

// claim leads every keys[i] not already in flight and follows the rest,
// in one critical section. On return wait[i] is nil for a led key and
// the leader's done channel for a followed one. The returned channel is
// the caller's own, to pass to release; it is nil when nothing was led.
// A key repeated within keys is led once and followed by its repeats.
func (t *Tiered[V]) claim(keys []Key, wait []chan struct{}) chan struct{} {
	f := &t.flight
	var done chan struct{}
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[Key]chan struct{})
	}
	for i, k := range keys {
		if c, ok := f.calls[k]; ok {
			wait[i] = c
			continue
		}
		if done == nil {
			done = make(chan struct{})
		}
		f.calls[k] = done
		wait[i] = nil
		f.leads.Add(1)
	}
	f.mu.Unlock()
	return done
}

// release ends the claim that returned done: every led key (wait[i] nil)
// leaves the flight map, then done is closed. Removing before signalling
// makes late arrivals fresh leaders (the value is expected to be in
// memory by now) while existing followers drain from done.
func (t *Tiered[V]) release(keys []Key, wait []chan struct{}, done chan struct{}) {
	if done == nil {
		return
	}
	f := &t.flight
	f.mu.Lock()
	for i, k := range keys {
		if wait[i] == nil {
			delete(f.calls, k)
		}
	}
	f.mu.Unlock()
	close(done)
}

// Stats reports the flight tier's dedup effectiveness: Hits are
// followers served by a shared computation, Misses are keys led, Len the
// keys currently in flight.
func (f *Flight) Stats() Stats {
	f.mu.Lock()
	n := len(f.calls)
	f.mu.Unlock()
	return Stats{Hits: f.shares.Load(), Misses: f.leads.Load(), Len: n}
}
