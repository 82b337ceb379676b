package core

import (
	"context"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
)

// AdaptiveSearch runs the named search engine (grid, nsga2, anneal,
// pattern) over a problem until budget unique designs have been
// simulated, returning the engine's Pareto front. Seed 0 derives a
// deterministic seed from the engine name and space, so unseeded runs
// are still bit-reproducible.
func AdaptiveSearch(engine string, prob search.Problem, budget int, seed uint64) (search.Outcome, error) {
	return AdaptiveSearchContext(context.Background(), nil, engine, prob, budget, seed)
}

// AdaptiveSearchContext is AdaptiveSearch with cancellation and an
// optional shared explorer: a cancelled ctx aborts the search after the
// current generation, and a non-nil ex reuses its result cache across
// calls. A nil ex uses a fresh default explorer.
func AdaptiveSearchContext(ctx context.Context, ex *dse.Explorer, engine string, prob search.Problem, budget int, seed uint64) (search.Outcome, error) {
	if seed == 0 {
		seed = search.DeriveSeed(engine, prob.Space)
	}
	eng, err := search.New(engine, prob.Space, seed)
	if err != nil {
		return search.Outcome{}, err
	}
	return (&search.Runner{Explorer: ex}).Run(ctx, prob, eng, budget, seed)
}

// SearchCompliant is the adaptive counterpart of OptimizeCompliant for
// spaces too large to sweep: it explores the paper's Table 3 lattice at
// a TPP budget with the given engine, minimising prefill latency against
// die area. The returned front is the latency/area trade available to a
// sanctioned designer at that TPP tier.
func SearchCompliant(engine string, tppBudget float64, w model.Workload, budget int, seed uint64) (search.Outcome, error) {
	prob := search.Problem{
		Space:      search.FromGrid(dse.Table3(tppBudget, []float64{600})),
		Workload:   w,
		Objectives: search.ObjectivesLatencyArea(),
	}
	return AdaptiveSearch(engine, prob, budget, seed)
}
