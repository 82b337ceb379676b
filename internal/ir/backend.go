package ir

import (
	"repro/internal/arch"
	"repro/internal/perf"
)

// Backend times individual graph nodes on a device configuration. The
// analytic model (Analytic) and the discrete-event tile scheduler
// (tilesim.Backend) both implement it, so the simulation facade and the
// differential harness can drive either through one code path.
//
// Implementations may assume cfg and tp were validated by the caller:
// sim.SimulateGraph checks them once per graph rather than once per node.
type Backend interface {
	Time(cfg arch.Config, tp int, n Node) (perf.Time, error)
}

// Analytic is the default backend: the closed-form roofline engine in
// package perf, timing one node at a time.
type Analytic struct {
	Engine *perf.Engine
}

// Time implements Backend.
func (a Analytic) Time(cfg arch.Config, tp int, n Node) (perf.Time, error) {
	return a.Engine.TimeOp(cfg, tp, n.Op)
}
