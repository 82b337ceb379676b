package store

import "sync"

// shardBits fixes the store's lock count at shards = 32, so the window
// workers and request handlers sharing one store rarely wait on the
// same lock.
const (
	shardBits = 5
	shards    = 1 << shardBits
)

// keyBytes is what the store charges for an entry's Key.
const keyBytes = 16

// Tiered is the LRU the point store (dse.PointStore) is built on: a
// least-recently-used map from Key to value, bounded in entries and
// byte-accounted. Keys are split by their top bits over independently
// locked shards, each with its own recency list, so concurrent sweeps do
// not serialise on one mutex.
//
// The store times nothing itself: a probe or a write takes well under a
// microsecond, so a clock read and a histogram sample per call would
// cost more than the call. Callers time whole batches of calls instead,
// as the dse sweep window does with its probe and finish stages.
type Tiered[V any] struct {
	shards [shards]shard[V]
	// size estimates one value's resident bytes for Stats.Bytes.
	size func(V) int
}

// shard counters live under the shard mutex, not in store-level atomics,
// so Stats can hold every shard lock and read one consistent snapshot:
// with free-running atomics a reader could see hits and misses from
// different moments and report a ratio no real instant ever had.
type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[Key]*entry[V]
	// ring is the sentinel of the circular recency list threaded through
	// the entries: ring.next is the most recently used, ring.prev the
	// least.
	ring                    entry[V]
	hits, misses, evictions uint64
	bytes                   int64
}

type entry[V any] struct {
	key   Key
	value V
	// bytes is the size charged to the shard for this entry, remembered
	// so a refresh or an eviction debits exactly what was credited.
	bytes      int64
	prev, next *entry[V]
}

// NewTiered returns a store holding up to capacity entries (raised to
// at least one per shard) that charges each entry 16 bytes of key plus
// size(value) in its Bytes figure.
func NewTiered[V any](capacity int, size func(V) int) *Tiered[V] {
	capacity = max(capacity, shards)
	t := &Tiered[V]{size: size}
	for i := range t.shards {
		n := capacity / shards
		if i < capacity%shards {
			n++
		}
		s := &t.shards[i]
		*s = shard[V]{capacity: n, entries: make(map[Key]*entry[V])}
		s.ring.prev, s.ring.next = &s.ring, &s.ring
	}
	return t
}

// shardOf picks k's shard by the top bits of its words: the FNV-1a content
// hashes mix every input bit into their top bits, while their low bits
// depend only on the low bits of each byte hashed.
func (t *Tiered[V]) shardOf(k Key) *shard[V] {
	return &t.shards[(k.Hi^k.Lo)>>(64-shardBits)]
}

// Get returns the value stored for k, counting the lookup as a hit or a
// miss.
func (t *Tiered[V]) Get(k Key) (V, bool) {
	var v V
	ok := t.GetInto(k, &v)
	return v, ok
}

// GetInto is Get writing a hit's value to *dst, the one copy out of the
// store, and leaving *dst untouched on a miss: a large V returned by
// value would be copied again by each caller on its way to where it is
// kept. A hit marks k most recently used.
//
//acr:hotpath
func (t *Tiered[V]) GetInto(k Key, dst *V) bool {
	s := t.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		return false
	}
	s.hits++
	e.unlink()
	s.pushFront(e)
	*dst = e.value
	return true
}

// Put inserts or refreshes k, evicting the least recently used entry of
// k's shard when the shard is full. A refresh replaces the value and
// re-charges its size, so writing one key twice never charges it twice.
//
//acr:hotpath
func (t *Tiered[V]) Put(k Key, v V) {
	bytes := int64(keyBytes + t.size(v))
	s := t.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.value = v
		s.bytes += bytes - e.bytes
		e.bytes = bytes
		e.unlink()
		s.pushFront(e)
		return
	}
	if len(s.entries) >= s.capacity {
		old := s.ring.prev
		old.unlink()
		delete(s.entries, old.key)
		s.bytes -= old.bytes
		s.evictions++
	}
	//lint:ignore allochot the insert path's single entry allocation is the cache storing its value; the hit and refresh paths above stay alloc-free
	e := &entry[V]{key: k, value: v, bytes: bytes}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += bytes
}

// pushFront links e in as the shard's most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &s.ring, s.ring.next
	e.next.prev = e
	s.ring.next = e
}

// unlink takes e out of its shard's recency list.
func (e *entry[V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// Stats snapshots the store's counters with every shard lock held,
// taken in shard order so concurrent callers cannot deadlock: hits,
// misses, evictions, entries and bytes all describe the same instant.
func (t *Tiered[V]) Stats() Stats {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
	var st Stats
	for i := range t.shards {
		s := &t.shards[i]
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Len += len(s.entries)
		st.Capacity += s.capacity
		st.Bytes += s.bytes
	}
	for i := range t.shards {
		t.shards[i].mu.Unlock()
	}
	return st
}
