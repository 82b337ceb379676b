package store

import "sync"

// shardBits fixes the memory tier's lock count at shards = 32, so the
// window workers and request handlers sharing one store rarely wait on
// the same lock.
const (
	shardBits = 5
	shards    = 1 << shardBits
)

// keyBytes is what the memory tier charges for an entry's Key.
const keyBytes = 16

// memory is the in-process tier: a least-recently-used map from Key to
// value, bounded in entries. Keys are split by their top bits over
// independently locked shards, each with its own recency list, so
// concurrent sweeps do not serialise on one mutex.
type memory[V any] struct {
	shards [shards]shard[V]
	// size estimates one value's resident bytes for Stats.Bytes.
	size func(V) int
}

// shard counters live under the shard mutex, not in tier-level atomics,
// so stats can hold every shard lock and read one consistent snapshot:
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

// init bounds the tier to capacity entries, raised to at least one per
// shard, and charges each entry keyBytes plus size(value).
func (m *memory[V]) init(capacity int, size func(V) int) {
	capacity = max(capacity, shards)
	m.size = size
	for i := range m.shards {
		n := capacity / shards
		if i < capacity%shards {
			n++
		}
		s := &m.shards[i]
		*s = shard[V]{capacity: n, entries: make(map[Key]*entry[V])}
		s.ring.prev, s.ring.next = &s.ring, &s.ring
	}
}

// shardOf picks k's shard by the top bits of its words: the FNV-1a content
// hashes mix every input bit into their top bits, while their low bits
// depend only on the low bits of each byte hashed.
func (m *memory[V]) shardOf(k Key) *shard[V] {
	return &m.shards[(k.Hi^k.Lo)>>(64-shardBits)]
}

// get copies the value cached for k to *dst, marking it most recently
// used, and reports whether there was one; on a miss *dst is untouched.
//
//acr:hotpath
func (m *memory[V]) get(k Key, dst *V) bool {
	s := m.shardOf(k)
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

// put inserts or refreshes k, evicting the least recently used entry of
// k's shard when the shard is full.
//
//acr:hotpath
func (m *memory[V]) put(k Key, v V) {
	bytes := int64(keyBytes + m.size(v))
	s := m.shardOf(k)
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

// stats snapshots the tier's counters with every shard lock held, taken
// in shard order so concurrent callers cannot deadlock: hits, misses,
// evictions, entries and bytes all describe the same instant.
func (m *memory[V]) stats() Stats {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
	var st Stats
	for i := range m.shards {
		s := &m.shards[i]
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Len += len(s.entries)
		st.Capacity += s.capacity
		st.Bytes += s.bytes
	}
	for i := range m.shards {
		m.shards[i].mu.Unlock()
	}
	return st
}
