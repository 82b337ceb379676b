package store

import (
	"sync"
	"sync/atomic"
	"testing"
)

func intSize(int) int { return 8 }

// spreadKey returns the n-th test key with its top bits mixed the way
// content hashes mix them, so consecutive n land on different shards.
// Small literal keys (Key{Hi: 1}, Key{Hi: 2}, ...) all share shard 0.
func spreadKey(n int) Key { return Key{Hi: uint64(n) * 0x9e3779b97f4a7c15} }

func TestGetPutAndEviction(t *testing.T) {
	// Two entries per shard; a, b and c share shard 0, so its eviction
	// order is deterministic.
	ts := NewTiered(2*shards, intSize)
	a, b, c := Key{Hi: 1}, Key{Hi: 2}, Key{Hi: 3}
	ts.Put(a, 1)
	ts.Put(b, 2)
	if v, ok := ts.Get(a); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// a is now most recent; inserting c must evict b.
	ts.Put(c, 3)
	if _, ok := ts.Get(b); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := ts.Get(a); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := ts.Get(c); !ok {
		t.Error("c should be present")
	}
	if got := ts.Stats().Len; got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	ts := NewTiered(2*shards, func(v string) int { return len(v) })
	k := Key{Hi: 1}
	ts.Put(k, "v1")
	ts.Put(k, "v2")
	if v, _ := ts.Get(k); v != "v2" {
		t.Errorf("refresh failed: %q", v)
	}
	if n := ts.Stats().Len; n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestStatsCounters(t *testing.T) {
	ts := NewTiered(4*shards, intSize)
	ts.Put(Key{Hi: 1}, 1)
	ts.Get(Key{Hi: 1})
	ts.Get(Key{Hi: 2})
	s := ts.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", s)
	}
	if s.Capacity != 4*shards {
		t.Errorf("capacity = %d, want %d", s.Capacity, 4*shards)
	}
	if r := s.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", r)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty stats hit ratio should be 0")
	}
}

func TestCapacityRaisedToShardCount(t *testing.T) {
	ts := NewTiered(1, intSize)
	for i := 0; i < shards; i++ {
		ts.Put(spreadKey(i), i)
	}
	if s := ts.Stats(); s.Capacity != shards {
		t.Errorf("capacity = %d, want %d (one per shard)", s.Capacity, shards)
	}
}

// TestHitRatioEmptyCache is the NaN regression: a ratio over zero
// lookups must answer 0, not 0/0.
func TestHitRatioEmptyCache(t *testing.T) {
	s := NewTiered(16, intSize).Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("fresh cache stats = %+v", s)
	}
	if r := s.HitRatio(); r != 0 {
		t.Errorf("HitRatio() on zero lookups = %v, want 0 (NaN regression)", r)
	}
}

// TestStatsConsistentSnapshot is the torn-aggregation regression: the
// store's Stats must hold every shard lock while it aggregates, so
// each snapshot's counters describe one instant. With free-running
// counters a snapshot taken mid-burst could count a lookup in Misses
// that a later-read Hits had not yet seen, breaking
// Hits+Misses <= lookups-started.
func TestStatsConsistentSnapshot(t *testing.T) {
	ts := NewTiered(shards, intSize) // 64 keys over 32 slots: evictions too
	var started atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := spreadKey((g*17 + i) % 64)
				started.Add(1)
				if _, ok := ts.Get(key); !ok {
					ts.Put(key, i)
				}
			}
		}(g)
	}
	var prev Stats
	for i := 0; i < 200; i++ {
		s := ts.Stats()
		// Every snapshot obeys the books: lookups counted never exceed
		// lookups started, and counters never run backwards.
		if total, max := s.Hits+s.Misses, started.Load(); total > max {
			t.Fatalf("snapshot counts %d lookups, only %d started", total, max)
		}
		if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Evictions < prev.Evictions {
			t.Fatalf("counters ran backwards: %+v then %+v", prev, s)
		}
		if s.Len > s.Capacity {
			t.Fatalf("Len %d exceeds capacity %d", s.Len, s.Capacity)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
	// Quiescent: the final snapshot must balance exactly.
	if s := ts.Stats(); s.Hits+s.Misses != started.Load() {
		t.Errorf("final snapshot %d lookups, want %d", s.Hits+s.Misses, started.Load())
	}
}

func TestConcurrentAccess(t *testing.T) {
	ts := NewTiered(128, intSize)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (g*31 + i) % 200
				key := spreadKey(n)
				if v, ok := ts.Get(key); ok && v != n {
					t.Errorf("corrupt value for key %d: %d", n, v)
					return
				}
				ts.Put(key, n)
			}
		}(g)
	}
	wg.Wait()
	s := ts.Stats()
	if s.Len > 128 {
		t.Errorf("cache exceeded capacity: %d", s.Len)
	}
	if s.Hits+s.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

// TestBytesAccounting pins the approximate-size tracking: inserts credit
// the 16-byte key plus the value's size, updates re-charge the delta,
// evictions and overwrites debit exactly what was credited — so a cache
// cycled through many generations of entries never drifts.
func TestBytesAccounting(t *testing.T) {
	// Two entries per shard; every key below shares shard 0.
	ts := NewTiered(2*shards, func(v string) int { return len(v) })
	ts.Put(Key{Hi: 1}, "xxxx") // 16 + 4
	ts.Put(Key{Hi: 2}, "yy")   // 16 + 2
	if got := ts.Stats().Bytes; got != 38 {
		t.Fatalf("bytes after two inserts = %d, want 38", got)
	}
	ts.Put(Key{Hi: 1}, "x") // update: 20 -> 17
	if got := ts.Stats().Bytes; got != 35 {
		t.Fatalf("bytes after shrinking update = %d, want 35", got)
	}
	ts.Put(Key{Hi: 3}, "zzzz") // evicts the LRU entry Hi:2 (18), adds 20
	s := ts.Stats()
	if s.Evictions != 1 || s.Bytes != 37 {
		t.Fatalf("after eviction: %+v, want 1 eviction and 37 bytes", s)
	}
	// Cycle many generations: the total must equal the resident entries'
	// charge, not accumulate residue from evicted ones.
	for i := 0; i < 100; i++ {
		ts.Put(Key{Hi: uint64(10 + i)}, "vvvv")
	}
	s = ts.Stats()
	if s.Len != 2 || s.Bytes != 2*(16+4) {
		t.Fatalf("after churn: %+v, want 2 resident entries at 20 bytes each", s)
	}
}

// TestTieredStressConcurrent hammers a store from many goroutines, each
// probing windows of keys with Get and putting what it missed, over a
// key space larger than the store; run with -race it is the store's
// concurrency contract. Every lookup counts once, every hit returns the
// value its key was written with, and repeated Puts of one key never
// charge it twice.
func TestTieredStressConcurrent(t *testing.T) {
	ts := NewTiered(shards, intSize) // one entry per shard: forces evictions
	const goroutines, windows, width = 8, 200, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]Key, width)
			for i := 0; i < windows; i++ {
				for j := range keys {
					keys[j] = spreadKey((g*7 + i + j*13) % 64)
				}
				keys[3] = keys[0] // a repeat within one window
				var miss []Key
				for _, k := range keys {
					if v, ok := ts.Get(k); ok {
						if want := int(k.Hi>>32) + 1000; v != want {
							t.Errorf("key %x = %d, want %d", k.Hi, v, want)
						}
						continue
					}
					miss = append(miss, k)
				}
				for _, k := range miss {
					ts.Put(k, int(k.Hi>>32)+1000)
				}
			}
		}(g)
	}
	wg.Wait()
	s := ts.Stats()
	if got := s.Hits + s.Misses; got != goroutines*windows*width {
		t.Errorf("%d lookups counted, want %d", got, goroutines*windows*width)
	}
	if s.Len > s.Capacity {
		t.Errorf("Len %d exceeds capacity %d", s.Len, s.Capacity)
	}
	if want := int64(s.Len) * (keyBytes + 8); s.Bytes != want {
		t.Errorf("Bytes = %d for %d entries, want %d", s.Bytes, s.Len, want)
	}
}
