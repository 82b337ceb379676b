package server

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// routeCounts is one route's request tally, kept by its route closure.
// The route's latencies need no second histogram: its request span
// already times every request into the obs stage named after the route.
type routeCounts struct {
	count  atomic.Uint64
	errors atomic.Uint64 // responses with status >= 400
}

// EndpointSnapshot is one route's exported counters. The latency fields
// (milliseconds) are read from the route's obs stage histogram, at its
// bucket resolution, and are omitted when tracing is disabled.
type EndpointSnapshot struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	AvgMS  float64 `json:"avg_ms,omitempty"`
	P50MS  float64 `json:"p50_ms,omitempty"`
	P90MS  float64 `json:"p90_ms,omitempty"`
	P99MS  float64 `json:"p99_ms,omitempty"`
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
// shared point store's outcomes; Store reports the same snapshot in the
// store's own shape, with its byte figure, under "mem" (the store's one
// tier). Both read one Stats call, so their counts always agree.
type MetricsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Requests      map[string]EndpointSnapshot `json:"requests"`
	Cache         CacheSnapshot               `json:"cache"`
	Store         map[string]store.Stats      `json:"store,omitempty"`
	Queue         QueueSnapshot               `json:"queue"`
}

// metricsSnapshot folds the route counters and their stage latencies
// together with store and queue state into one exportable document.
// Routes that have served no request are omitted.
func (s *Server) metricsSnapshot() MetricsSnapshot {
	stages := make(map[string]obs.StageStats)
	for _, st := range s.obs.StageStats() { // nil-safe: no stages without tracing
		stages[st.Stage] = st
	}
	reqs := make(map[string]EndpointSnapshot)
	for route, rc := range s.routes {
		n := rc.count.Load()
		if n == 0 {
			continue
		}
		st := stages[route]
		reqs[route] = EndpointSnapshot{
			Count:  n,
			Errors: rc.errors.Load(),
			AvgMS:  st.MeanSec * 1e3,
			P50MS:  st.P50Sec * 1e3,
			P90MS:  st.P90Sec * 1e3,
			P99MS:  st.P99Sec * 1e3,
		}
	}
	var cache store.Stats
	var storeStats map[string]store.Stats
	if s.explorer.Cache != nil {
		cache = s.explorer.Cache.Stats()
		storeStats = map[string]store.Stats{"mem": cache}
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      reqs,
		Cache: CacheSnapshot{
			Hits:      cache.Hits,
			Misses:    cache.Misses,
			HitRatio:  cache.HitRatio(),
			Entries:   cache.Len,
			Capacity:  cache.Capacity,
			Evictions: cache.Evictions,
		},
		Store: storeStats,
		Queue: s.queue.Snapshot(),
	}
}
