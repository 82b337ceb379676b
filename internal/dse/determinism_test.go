package dse

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/model"
)

// The golden fixtures in internal/golden pin sweep results byte for byte,
// which is only sound if sweep evaluation is bit-deterministic. These
// tests assert that determinism at its two sources: grid enumeration
// order and concurrent evaluation.

func TestExpandOrderingIsStable(t *testing.T) {
	g := Table3(4800, []float64{600, 900})
	first := g.Expand()
	second := g.Expand()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two expansions of the same grid differ")
	}
	seen := make(map[string]bool, len(first))
	for _, cfg := range first {
		if seen[cfg.Name] {
			t.Fatalf("duplicate design name %q in expansion", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	// The nested loop order (dim, lanes, L1, L2, HBM BW, device BW) is
	// part of Expand's contract: fixtures, caches and result files all
	// index designs by position.
	if len(first) != g.Size() {
		t.Fatalf("expanded %d designs, grid size %d", len(first), g.Size())
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.SystolicDimX > b.SystolicDimX {
			t.Fatalf("designs %d/%d out of systolic-dim order: %s before %s", i-1, i, a.Name, b.Name)
		}
	}
}

func TestEvaluateContextDeterministicAcrossWorkers(t *testing.T) {
	g := Table3(4800, []float64{600})
	w := model.PaperWorkload(model.Llama3_8B())
	cfgs := g.Expand()

	var baseline []Point
	for _, workers := range []int{1, 3, 8} {
		e := NewExplorer()
		e.Cache = nil // force every worker count to recompute from scratch
		e.Parallelism = workers
		points, err := e.EvaluateContext(context.Background(), cfgs, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = points
			continue
		}
		if !reflect.DeepEqual(baseline, points) {
			t.Errorf("workers=%d produced different points than workers=1", workers)
		}
	}

	// Repeated runs of the same explorer must also agree bit for bit.
	e := NewExplorer()
	e.Cache = nil
	again, err := e.EvaluateContext(context.Background(), cfgs, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, again) {
		t.Error("repeated evaluation produced different points")
	}
}
