package search

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/golden"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// generationRecorder wraps an engine and keeps, per generation, the
// results the runner evaluated in it: neither revisits nor undecodable
// proposals.
type generationRecorder struct {
	Explorer
	gens [][]Result
}

func (g *generationRecorder) Observe(results []Result) {
	var fresh []Result
	for _, r := range results {
		if !r.Revisited && r.DecodeErr == "" {
			fresh = append(fresh, r)
		}
	}
	g.gens = append(g.gens, fresh)
	g.Explorer.Observe(results)
}

// TestRunEvaluatesThroughOneSession pins that a search run is one dse
// session (CI's race-stress step runs it under -race): an nsga2 run on
// the jan2025 lattice at budget 384 lowers its workload in exactly one
// dse.lower span under its search.run, not once per generation, and the
// points of its generations, which share the session's L2 blocking
// table, are bit-identical to a fresh Explorer.EvaluateContext per
// generation.
func TestRunEvaluatesThroughOneSession(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	prob := Jan2025Problem(w)
	const seed = 20250108
	eng, err := New("nsga2", prob.Space, seed)
	if err != nil {
		t.Fatal(err)
	}
	// No point store, so every design of the run is evaluated in the
	// session rather than served from memory.
	explorer := func() *dse.Explorer { return &dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer} }
	gens := &generationRecorder{Explorer: eng}
	rec := obs.NewRecorder(0)
	ctx := context.Background()
	if _, err := (&Runner{Explorer: explorer()}).Run(obs.WithRecorder(ctx, rec), prob, gens, 384, seed); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans", rec.Dropped())
	}

	spans := rec.Spans()
	parent := make(map[string]string, len(spans))
	run := ""
	for _, sr := range spans {
		parent[sr.Span] = sr.Parent
		if sr.Name == "search.run" {
			run = sr.Span
		}
	}
	under := func(id string) bool {
		for ; id != ""; id = parent[id] {
			if id == run {
				return true
			}
		}
		return false
	}
	lowers, sweeps := 0, 0
	for _, sr := range spans {
		switch {
		case !under(sr.Span):
		case sr.Name == "dse.lower":
			lowers++
		case sr.Name == "dse.sweep":
			sweeps++
		}
	}
	if sweeps < 2 {
		t.Fatalf("the run swept %d times under its search.run; the test needs several generations", sweeps)
	}
	if lowers != 1 {
		t.Errorf("%d dse.lower spans under the search.run of %d sweeps, want 1", lowers, sweeps)
	}

	ref := explorer()
	for gi, gen := range gens.gens {
		if len(gen) == 0 {
			continue
		}
		cfgs := make([]arch.Config, len(gen))
		got := make([]dse.Point, len(gen))
		for i, r := range gen {
			cfgs[i], got[i] = r.Point.Config, r.Point
		}
		want, err := ref.EvaluateContext(ctx, cfgs, w)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := golden.DiffPointsExact(got, want); len(diffs) > 0 {
			t.Errorf("generation %d: %d fields differ from a fresh sweep, first: %s", gi, len(diffs), diffs[0])
		}
	}
}
