package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
)

// latencyBucketsMS are the upper bounds (inclusive, milliseconds) of the
// request-latency histogram. They span the service's dynamic range: a
// cached classify answers in well under a millisecond while a cold
// Table 5 sweep runs for seconds.
var latencyBucketsMS = []float64{0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// endpointMetrics accumulates one route's counters. Guarded by
// metrics.mu.
type endpointMetrics struct {
	count   uint64
	errors  uint64 // responses with status >= 400
	totalMS float64
	buckets []uint64 // len(latencyBucketsMS)+1; last bucket is overflow
}

// metrics is the process-wide observability state behind /metrics: request
// counts and latency histograms per route, plus the snapshot glue that
// folds in cache and queue statistics. Plain JSON over expvar-style
// counters — no external dependencies.
type metrics struct {
	start time.Time
	mu    sync.Mutex
	byEP  map[string]*endpointMetrics
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), byEP: make(map[string]*endpointMetrics)}
}

// observe records one served request for the labelled route.
func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.byEP[route]
	if ep == nil {
		ep = &endpointMetrics{buckets: make([]uint64, len(latencyBucketsMS)+1)}
		m.byEP[route] = ep
	}
	ep.count++
	if status >= 400 {
		ep.errors++
	}
	ms := float64(d) / float64(time.Millisecond)
	ep.totalMS += ms
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	ep.buckets[i]++
}

// EndpointSnapshot is one route's exported counters.
type EndpointSnapshot struct {
	Count     uint64            `json:"count"`
	Errors    uint64            `json:"errors"`
	AvgMS     float64           `json:"avg_ms"`
	LatencyMS map[string]uint64 `json:"latency_ms"`
}

// CacheSnapshot exports the shared result cache's effectiveness.
type CacheSnapshot struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	HitRatio  float64 `json:"hit_ratio"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Evictions uint64  `json:"evictions"`
}

// QueueSnapshot exports the job queue's state.
type QueueSnapshot struct {
	Depth     int    `json:"depth"`
	Workers   int    `json:"workers"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Rejected  uint64 `json:"rejected"`
}

// MetricsSnapshot is the full /metrics document. Cache summarises the
// shared result store's top-level outcomes (kept for compatibility);
// Store breaks every cache layer out per tier — the result store's
// "mem" and "flight" tiers and the perf engine's component memo tables
// "perf.*".
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Cache         CacheSnapshot               `json:"cache"`
	Store         map[string]store.Stats      `json:"store,omitempty"`
	Queue         QueueSnapshot               `json:"queue"`
}

// snapshot folds the route counters together with cache, per-tier store
// and queue state into one exportable document.
func (m *metrics) snapshot(cache store.Stats, tiers map[string]store.Stats, queue QueueSnapshot) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	reqs := make(map[string]EndpointSnapshot, len(m.byEP))
	for route, ep := range m.byEP {
		hist := make(map[string]uint64, len(ep.buckets))
		for i, n := range ep.buckets {
			if n == 0 {
				continue // keep the document small; absent means zero
			}
			if i < len(latencyBucketsMS) {
				hist[fmt.Sprintf("le_%g", latencyBucketsMS[i])] = n
			} else {
				hist[fmt.Sprintf("gt_%g", latencyBucketsMS[len(latencyBucketsMS)-1])] = n
			}
		}
		snap := EndpointSnapshot{Count: ep.count, Errors: ep.errors, LatencyMS: hist}
		if ep.count > 0 {
			snap.AvgMS = ep.totalMS / float64(ep.count)
		}
		reqs[route] = snap
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      reqs,
		Cache: CacheSnapshot{
			Hits:      cache.Hits,
			Misses:    cache.Misses,
			HitRatio:  cache.HitRatio(),
			Entries:   cache.Len,
			Capacity:  cache.Capacity,
			Evictions: cache.Evictions,
		},
		Store: tiers,
		Queue: queue,
	}
}
