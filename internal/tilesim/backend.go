package tilesim

import (
	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/perf"
)

// Backend adapts the discrete-event tile scheduler to the operator-graph
// Backend interface, so graph evaluation and the differential harness can
// swap it in wherever the analytic engine runs. Matmul nodes are timed
// event-driven; vector and collective nodes fall through to the analytic
// engine, since the event model only covers the tiled-matmul path.
type Backend struct {
	// Engine supplies the launch-overhead constant applied to event-timed
	// matmuls and the analytic fallback for non-matmul nodes.
	Engine *perf.Engine
}

// Time implements ir.Backend. For matmul nodes only Seconds and FLOPs are
// populated: the event model produces one makespan with compute, feed and
// DRAM contention interleaved, so there are no separable bound components
// to report.
func (b Backend) Time(cfg arch.Config, tp int, n ir.Node) (perf.Time, error) {
	m, ok := n.Op.(perf.Matmul)
	if !ok {
		return b.Engine.TimeOp(cfg, tp, n.Op)
	}
	r, err := Simulate(cfg, m)
	if err != nil {
		return perf.Time{}, err
	}
	return perf.Time{
		Name:    m.Name,
		Seconds: r.Seconds + b.Engine.LaunchOverheadSec,
		FLOPs:   m.FLOPs(),
	}, nil
}
