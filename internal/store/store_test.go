package store

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pairCodec encodes a two-field struct — enough structure to catch
// header/payload framing bugs without depending on higher layers.
type pair struct {
	A uint64
	B string
}

type pairCodec struct{ version string }

func (c pairCodec) Version() string {
	if c.version != "" {
		return c.version
	}
	return "pair-v1"
}

func (pairCodec) Encode(dst []byte, v pair) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, v.A)
	dst = binary.AppendUvarint(dst, uint64(len(v.B)))
	return append(dst, v.B...), nil
}

func (pairCodec) Decode(data []byte) (pair, error) {
	if len(data) < 8 {
		return pair{}, errors.New("short")
	}
	v := pair{A: binary.LittleEndian.Uint64(data)}
	n, used := binary.Uvarint(data[8:])
	if used <= 0 || uint64(len(data)-8-used) != n {
		return pair{}, errors.New("bad string length")
	}
	v.B = string(data[8+used:])
	return v, nil
}

// result is one key's resolution in a test window.
type result struct {
	v        int
	ok       bool // a value arrived: computed here, or served
	shared   bool // served by another caller's computation
	computed bool
}

// window runs the Get-then-ComputeWindow protocol the dse sweep uses:
// every key is probed with Get, and the misses complete in one window
// whose led keys fn computes (a value is Put only when fn succeeds).
func window(ctx context.Context, ts *Tiered[int], keys []Key, fn func(Key) (int, error)) ([]result, error) {
	res := make([]result, len(keys))
	var miss []Key
	var missIdx []int
	for i, k := range keys {
		if v, ok := ts.Get(ctx, k); ok {
			res[i] = result{v: v, ok: true}
			continue
		}
		miss = append(miss, k)
		missIdx = append(missIdx, i)
	}
	if len(miss) == 0 {
		return res, nil
	}
	var buf WindowBuf
	err := ts.ComputeWindow(ctx, miss, &buf, func(lead []int) {
		for _, j := range lead {
			v, err := fn(miss[j])
			if err != nil {
				continue
			}
			ts.Put(ctx, miss[j], v)
			res[missIdx[j]] = result{v: v, ok: true, computed: true}
		}
	}, func(j int, v int, shared bool) {
		res[missIdx[j]] = result{v: v, ok: true, shared: shared}
	})
	return res, err
}

// one is window over a single key.
func one(ctx context.Context, ts *Tiered[int], k Key, fn func() (int, error)) (result, error) {
	res, err := window(ctx, ts, []Key{k}, func(Key) (int, error) { return fn() })
	return res[0], err
}

// newIntStore holds 64 entries per shard, so the literal keys the flight
// tests use, which all share shard 0, are never evicted.
func newIntStore() *Tiered[int] { return NewTiered(64*shards, intSize) }

func flightStats(ts *Tiered[int]) Stats { return ts.TierStats()["flight"] }

// TestFlightDeduplicates drives N concurrent callers of one key through
// a gate so all of them are in flight together: exactly one computation
// must run, and everyone else is served its value.
func TestFlightDeduplicates(t *testing.T) {
	ts := newIntStore()
	const n = 16
	var computed atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := one(context.Background(), ts, Key{Hi: 1}, func() (int, error) {
				<-gate // hold the flight open until all callers joined
				computed.Add(1)
				return 99, nil
			})
			if err != nil || !r.ok || r.v != 99 {
				t.Errorf("window = %+v, %v", r, err)
			}
		}()
	}
	// Wait until one leader is registered, then let it finish. Callers
	// that arrive after the release find the value in memory, either on
	// their Get or on the re-probe after winning leadership.
	for flightStats(ts).Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	if s := ts.Stats(); s.Misses != 1 || s.Hits != n-1 {
		t.Errorf("store stats %+v: want 1 miss and %d hits", s, n-1)
	}
	if s := flightStats(ts); s.Len != 0 || s.Hits > n-1 {
		t.Errorf("flight stats %+v: want no keys in flight and at most %d shares", s, n-1)
	}
}

// TestFlightFollowerRetriesAfterLeaderFailure pins the error contract: a
// follower does not inherit the leader's failure, it recomputes.
func TestFlightFollowerRetriesAfterLeaderFailure(t *testing.T) {
	ts := newIntStore()
	k := Key{Hi: 4}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		one(context.Background(), ts, k, func() (int, error) {
			close(leaderIn)
			<-release
			return 0, errors.New("leader died")
		})
	}()
	<-leaderIn
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := one(context.Background(), ts, k, func() (int, error) { return 7, nil })
		if err != nil || !r.computed || r.v != 7 {
			t.Errorf("follower after failed leader: %+v, %v", r, err)
		}
	}()
	close(release)
	<-done
}

// TestFlightShareCountedOnlyOnDelivery is the stats regression for the
// double-count: a follower that observes a failed leader and loops to
// contend again used to bump shares once per retry (and even when it
// then timed out), so the flight tier's Hits in /metrics exceeded the
// number of values ever shared. A share must count only when a value is
// actually delivered from another caller's computation.
func TestFlightShareCountedOnlyOnDelivery(t *testing.T) {
	ts := newIntStore()
	k := Key{Hi: 6}

	// Round 1: leader fails while one follower waits and a second
	// follower's context has already ended. Neither received a value, so
	// neither may count as a share.
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		one(context.Background(), ts, k, func() (int, error) {
			close(leaderIn)
			<-release
			return 0, errors.New("leader died")
		})
	}()
	<-leaderIn
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := one(expired, ts, k, func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("timed-out follower err = %v", err)
	}
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		// Observes the failed leader, loops, wins leadership, computes.
		r, err := one(context.Background(), ts, k, func() (int, error) { return 7, nil })
		if err != nil || r.v != 7 || r.shared {
			t.Errorf("retrying follower: %+v, %v", r, err)
		}
	}()
	close(release)
	<-followerDone

	s := flightStats(ts)
	if s.Hits != 0 {
		t.Errorf("after failed leader + timed-out follower: shares = %d, want 0 (no value was ever shared)", s.Hits)
	}
	if s.Misses != 2 {
		t.Errorf("leads = %d, want 2 (failed leader + retrying follower)", s.Misses)
	}

	// Round 2: a genuine share still counts exactly once. Joining an
	// in-flight claim is inherently racy from outside, so retry rounds,
	// each on a fresh key, until one follower actually shares; each round
	// delivers at most one share, so the first success pins the counter
	// at exactly 1.
	for attempt := uint64(0); attempt < 1000 && flightStats(ts).Hits == 0; attempt++ {
		k2 := Key{Hi: 100 + attempt}
		leaderIn2 := make(chan struct{})
		release2 := make(chan struct{})
		go func() {
			one(context.Background(), ts, k2, func() (int, error) {
				close(leaderIn2)
				<-release2
				return 42, nil
			})
		}()
		<-leaderIn2
		shareDone := make(chan struct{})
		go func() {
			defer close(shareDone)
			r, err := one(context.Background(), ts, k2, func() (int, error) { return 42, nil })
			if err != nil || r.v != 42 {
				t.Errorf("round-2 follower: %+v, %v", r, err)
			}
		}()
		runtime.Gosched()
		close(release2)
		<-shareDone
	}
	if s := flightStats(ts); s.Hits != 1 {
		t.Errorf("after one delivered value: shares = %d, want 1", s.Hits)
	}
}

// TestFlightFollowerHonorsOwnContext: a waiting follower whose context
// ends returns its own error instead of blocking on the leader, and
// never computes.
func TestFlightFollowerHonorsOwnContext(t *testing.T) {
	ts := newIntStore()
	k := Key{Hi: 5}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		one(context.Background(), ts, k, func() (int, error) {
			close(leaderIn)
			<-release
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := one(ctx, ts, k, func() (int, error) {
			t.Error("follower computed while its leader was in flight")
			return 2, nil
		})
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the follower reach its wait
	select {
	case err := <-errc:
		t.Fatalf("follower returned %v while its leader was still in flight", err)
	default:
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower returned %v, want context.Canceled", err)
	}
}

// TestFlightCrossClaim drives two windows that each lead a key the other
// follows: A leads a and follows b, then B leads b and follows a. Every
// claimed key is released before its window waits, so both finish, and
// each window is served the key the other computed.
func TestFlightCrossClaim(t *testing.T) {
	ts := newIntStore()
	ctx := context.Background()
	a, b := Key{Hi: 1}, Key{Hi: 2}
	value := map[Key]int{a: 10, b: 20}

	// Y leads b and fails, so b is free again once A follows it.
	yIn, yGo, yDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(yDone)
		one(ctx, ts, b, func() (int, error) {
			close(yIn)
			<-yGo
			return 0, errors.New("y failed")
		})
	}()
	<-yIn

	// A claims [a b]: leads a, follows Y's b; its computation of a holds.
	aIn, aGo := make(chan struct{}), make(chan struct{})
	type out struct {
		res []result
		err error
	}
	aOut, bOut := make(chan out, 1), make(chan out, 1)
	go func() {
		res, err := window(ctx, ts, []Key{a, b}, func(k Key) (int, error) {
			if k == a {
				close(aIn)
				<-aGo
			}
			return value[k], nil
		})
		aOut <- out{res, err}
	}()
	<-aIn
	close(yGo)
	<-yDone

	// B claims [b a]: leads b (free since Y failed), follows A's a; its
	// computation of b holds.
	bIn, bGo := make(chan struct{}), make(chan struct{})
	go func() {
		res, err := window(ctx, ts, []Key{b, a}, func(k Key) (int, error) {
			if k == b {
				close(bIn)
				<-bGo
			}
			return value[k], nil
		})
		bOut <- out{res, err}
	}()
	<-bIn

	// A stores a and releases it, finds b missing and claims it again
	// behind B; B then stores b and is served a.
	close(aGo)
	time.Sleep(10 * time.Millisecond) // let A reach its wait on B
	close(bGo)
	for name, c := range map[string]chan out{"A": aOut, "B": bOut} {
		select {
		case o := <-c:
			if o.err != nil {
				t.Fatalf("window %s: %v", name, o.err)
			}
			for _, r := range o.res {
				if !r.ok {
					t.Errorf("window %s left a key unresolved: %+v", name, o.res)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("window %s deadlocked", name)
		}
	}
	for k, want := range value {
		if v, ok := ts.Get(ctx, k); !ok || v != want {
			t.Errorf("key %v = %d, %v; want %d", k, v, ok, want)
		}
	}
	if s := flightStats(ts); s.Len != 0 || s.Hits == 0 {
		t.Errorf("flight stats %+v: want no keys in flight and a share", s)
	}
}

// TestTieredComputeAccounting pins the Misses == evaluations invariant
// across the Get-miss + ComputeWindow pairing, including a key a racer
// fills between the Get and the claim (served on the re-probe).
func TestTieredComputeAccounting(t *testing.T) {
	ts := newIntStore()
	ctx := context.Background()
	k := Key{Hi: 9}
	r, err := one(ctx, ts, k, func() (int, error) { return 1, nil })
	if err != nil || !r.computed || r.v != 1 {
		t.Fatalf("window = %+v, %v", r, err)
	}
	if s := ts.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Errorf("after one computation: %+v", s)
	}
	if v, ok := ts.Get(ctx, k); !ok || v != 1 {
		t.Fatalf("computed value not stored: %d, %v", v, ok)
	}
	if s := ts.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("after warm Get: %+v", s)
	}

	// A failed computation stays a miss and stores nothing.
	k2 := Key{Hi: 10}
	if r, err := one(ctx, ts, k2, func() (int, error) { return 0, errors.New("boom") }); err != nil || r.ok {
		t.Fatalf("failed computation: %+v, %v", r, err)
	}
	if _, ok := ts.Get(ctx, k2); ok {
		t.Error("failed computation was cached")
	}
	if s := ts.Stats(); s.Hits != 1 || s.Misses != 3 {
		t.Errorf("after a failed computation and its Get: %+v, want 1 hit and 3 misses", s)
	}

	// Re-probe after winning leadership: a racer fills k3 between the
	// Get and the claim, so the window serves it without computing and
	// the Get's miss turns into a hit.
	k3 := Key{Hi: 11}
	if _, ok := ts.Get(ctx, k3); ok {
		t.Fatal("unexpected hit")
	}
	ts.Put(ctx, k3, 3)
	var buf WindowBuf
	served := 0
	if err := ts.ComputeWindow(ctx, []Key{k3}, &buf, func([]int) {
		t.Error("computed a key memory already held")
	}, func(_ int, v int, shared bool) {
		if v != 3 || shared {
			t.Errorf("re-probe served %d (shared %v), want 3 from memory", v, shared)
		}
		served++
	}); err != nil || served != 1 {
		t.Fatalf("re-probe window: served %d, %v", served, err)
	}
	if s := ts.Stats(); s.Hits != 2 || s.Misses != 3 {
		t.Errorf("after the re-probe hit: %+v, want 2 hits and 3 misses", s)
	}
}

// TestTieredStressConcurrent hammers a store from many goroutines
// running windows of Gets and ComputeWindows over a small key space; run
// with -race it is the store's concurrency contract.
func TestTieredStressConcurrent(t *testing.T) {
	ts := NewTiered(shards, intSize) // one entry per shard: forces evictions
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				keys := make([]Key, 4)
				for j := range keys {
					keys[j] = spreadKey((g*7 + i + j*13) % 64)
				}
				keys[3] = keys[0] // a repeat follows its own window's lead
				res, err := window(ctx, ts, keys, func(k Key) (int, error) {
					return int(k.Hi) + 1000, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for j, r := range res {
					if !r.ok || r.v != int(keys[j].Hi)+1000 {
						t.Errorf("key %d resolved to %+v", keys[j].Hi, r)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s := ts.TierStats()["flight"]; s.Len != 0 {
		t.Errorf("%d keys still in flight", s.Len)
	}
}
