package server

import (
	"repro/internal/dse"
	"repro/internal/store"
)

// cacheShards spreads the shared result store's memory tier over enough
// locks that the worker pool and synchronous handlers don't serialise on
// lookups.
const cacheShards = 32

// newPointCache builds the shared evaluated-point store used by every
// simulation the server runs, synchronous or queued. Keys are dse.PointKey
// addresses (the IR content hashes of config and workload), so identical
// (config, workload) pairs — whatever endpoint or grid they arrive through,
// and whatever display names they carry — are simulated once.
func newPointCache(entries int) *store.Tiered[dse.Point] {
	return dse.NewPointStore(entries, cacheShards)
}
