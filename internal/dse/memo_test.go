package dse_test

import (
	"context"
	"testing"

	"repro/internal/dse"
	"repro/internal/golden"
	"repro/internal/model"
)

// TestSweepMemoBitEqual is the acceptance contract for store-backed grid
// evaluation: a cold sweep on the default explorer and a second sweep
// served entirely from its point store must both be bit-identical to the
// uncached single-design reference (golden.ReferenceExplorer). Covers the
// full sweep output — latencies, MFU, area, PD and cost; sweep points
// carry no per-operator profiles.
func TestSweepMemoBitEqual(t *testing.T) {
	grid := dse.Table3(4800, []float64{600})
	all := grid.Expand()
	// Stride across the grid so every axis varies while the test stays fast.
	configs := all[:0:0]
	for i := 0; i < len(all); i += 7 {
		configs = append(configs, all[i])
	}
	w := model.PaperWorkload(model.GPT3_175B())

	warm := dse.NewExplorer()
	first, err := warm.EvaluateContext(context.Background(), configs, w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := warm.EvaluateContext(context.Background(), configs, w) // every point a store hit
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Cache.Stats(); s.Hits != uint64(len(configs)) {
		t.Fatalf("second sweep hit the store %d times, want %d", s.Hits, len(configs))
	}
	reference, err := golden.ReferenceExplorer().EvaluateContext(context.Background(), configs, w)
	if err != nil {
		t.Fatal(err)
	}
	for pass, got := range map[string][]dse.Point{"cold": first, "store-hit": second} {
		if diffs := golden.DiffPointsExact(reference, got); len(diffs) != 0 {
			t.Errorf("%s sweep differs from the reference in %d fields, e.g. %s", pass, len(diffs), diffs[0])
		}
	}
}
