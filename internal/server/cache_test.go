package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/model"
)

// TestCacheConcurrentStress hammers the shared point store from many
// goroutines mixing hits, misses and evictions; run with -race it proves
// the store's sharded LRU is data-race free.
func TestCacheConcurrentStress(t *testing.T) {
	cache := dse.NewPointStore(256)
	ctx := context.Background()
	w := model.PaperWorkload(model.Llama3_8B())
	base := arch.A100()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				cfg := base
				cfg.L2MB = 8 + (g*13+i)%512 // many distinct keys force evictions
				key := dse.PointKey(cfg, w)
				if p, ok := cache.Get(ctx, key); ok && p.Config.L2MB != cfg.L2MB {
					t.Errorf("cache returned a point for the wrong key: L2 %d != %d",
						p.Config.L2MB, cfg.L2MB)
					return
				}
				cache.Put(ctx, key, dse.Point{Config: cfg})
			}
		}(g)
	}
	wg.Wait()
	s := cache.Stats()
	if s.Len > s.Capacity {
		t.Errorf("cache exceeded its bound: %d > %d", s.Len, s.Capacity)
	}
	if s.Evictions == 0 {
		t.Error("stress should have forced evictions")
	}
}

// TestConcurrentSimulateRequests drives the full handler stack — HTTP
// decode, shared explorer, shared cache, metrics — from concurrent
// clients. With -race this is the end-to-end concurrency check for the
// synchronous path.
func TestConcurrentSimulateRequests(t *testing.T) {
	s := New(Config{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Four distinct configs across all goroutines: plenty of
				// contention on the same cache entries.
				body := fmt.Sprintf(
					`{"config":{"preset":"a100","l2_mb":%d},"workload":{"model":"llama3"}}`,
					40+8*((g+i)%4))
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	stats := s.Explorer().Cache.Stats()
	if stats.Misses < 4 {
		t.Errorf("expected at least 4 distinct simulations, got %d misses", stats.Misses)
	}
	if stats.Hits == 0 {
		t.Error("80 requests over 4 configs should mostly hit the cache")
	}
}

// TestConcurrentJobsCountTheirOwnCacheOutcomes releases two cold Table 3
// sweeps of distinct workloads onto two workers at once. Each job's
// cache_hits and cache_misses count its own 512 designs: a delta of the
// store's global counters would also count the other job's lookups.
func TestConcurrentJobsCountTheirOwnCacheOutcomes(t *testing.T) {
	models := []string{"llama3", "gpt3"}
	s := New(Config{
		Workers: len(models),
		Backlog: 2 * len(models),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Occupy both workers until both sweeps are queued.
	release := make(chan struct{})
	start := sync.OnceFunc(func() { close(release) })
	defer start() // a failed check must not leave the sweeps queued
	for range models {
		if _, err := s.queue.Submit(func(ctx context.Context) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, m := range models {
		body := fmt.Sprintf(`{"table3":{"tpp":4800},"workload":{"model":%q}}`, m)
		resp, data := postJSON(t, ts.URL+"/v1/dse", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("enqueue %s: status %d: %s", m, resp.StatusCode, data)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(data, &enq); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, enq.JobID)
	}
	start()
	for i, id := range ids {
		st := pollJob(t, ts.URL, id)
		if st.State != "succeeded" {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		res := decodeDSEResult(t, st)
		if res.Designs != 512 || res.CacheMisses != 512 || res.CacheHits != 0 {
			t.Errorf("%s job: %d designs, cache_misses %d, cache_hits %d; want 512, 512, 0",
				models[i], res.Designs, res.CacheMisses, res.CacheHits)
		}
	}
}

// TestMetricsStoreMatchesCache pins the /metrics store surface: "cache"
// and "store.mem" read one snapshot of the one point store, so they
// report the same outcomes, each probe counts once (a cold Table 3 job
// adds 512 misses, not one per probe and re-probe), and "store" has no
// other key.
func TestMetricsStoreMatchesCache(t *testing.T) {
	_, ts := newTestServer(t)
	for _, run := range []string{"cold", "warm"} {
		resp, body := postJSON(t, ts.URL+"/v1/dse", table3Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s enqueue: status %d: %s", run, resp.StatusCode, body)
		}
		var enq EnqueueResponse
		if err := json.Unmarshal(body, &enq); err != nil {
			t.Fatal(err)
		}
		if st := pollJob(t, ts.URL, enq.JobID); st.State != "succeeded" {
			t.Fatalf("%s job: %s (%s)", run, st.State, st.Error)
		}
	}
	var raw struct {
		Store map[string]json.RawMessage `json:"store"`
	}
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &raw)
	getJSON(t, ts.URL+"/metrics", &m)
	if _, flight := raw.Store["flight"]; flight || len(raw.Store) != 1 || raw.Store["mem"] == nil {
		t.Errorf("/metrics store has %d keys (flight among them: %v), want mem alone", len(raw.Store), flight)
	}
	mem := m.Store["mem"]
	if mem.Hits != m.Cache.Hits || mem.Misses != m.Cache.Misses ||
		mem.Len != m.Cache.Entries || mem.Evictions != m.Cache.Evictions {
		t.Errorf("store.mem %+v disagrees with cache %+v", mem, m.Cache)
	}
	if m.Cache.Misses != 512 || m.Cache.Hits != 512 {
		t.Errorf("cache counted %d misses and %d hits over a cold and a warm Table 3 job, want 512 and 512", m.Cache.Misses, m.Cache.Hits)
	}
}
