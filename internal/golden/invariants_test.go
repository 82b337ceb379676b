package golden

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// The invariant suite runs the metamorphic/consistency layer over the
// paper's full grids — every design of Table 3 (both TPP budgets) and
// Table 5, for both workloads where runtime allows. Unlike the fixtures,
// these checks survive intentional recalibration: they assert structure,
// not values.

func runCheck(t *testing.T, g dse.Grid, w model.Workload) {
	t.Helper()
	points, err := dse.NewExplorer().Run(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != g.Size() {
		t.Fatalf("grid %s evaluated %d of %d designs", g.Name, len(points), g.Size())
	}
	viols := Check(points)
	for i, v := range viols {
		if i == 10 {
			t.Errorf("... and %d more violations", len(viols)-10)
			break
		}
		t.Error(v)
	}
}

func TestInvariantsTable3FullGridGPT3(t *testing.T) {
	runCheck(t, dse.Table3(4800, []float64{600}), model.PaperWorkload(model.GPT3_175B()))
}

func TestInvariantsTable3ThreeBWLlama3(t *testing.T) {
	runCheck(t, dse.Table3(2400, []float64{500, 700, 900}), model.PaperWorkload(model.Llama3_8B()))
}

func TestInvariantsTable5(t *testing.T) {
	runCheck(t, dse.Table5(), model.PaperWorkload(model.GPT3_175B()))
}

// TestInvariantCheckerDetectsViolations is the layer's self-test: corrupt
// an evaluated point in each checked dimension and confirm the checker
// reports it. A checker that cannot fail protects nothing.
func TestInvariantCheckerDetectsViolations(t *testing.T) {
	points, err := dse.NewExplorer().Run(dse.Table3(4800, []float64{600}), model.PaperWorkload(model.Llama3_8B()))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, check func([]dse.Point) []Violation, mutate func([]dse.Point)) {
		cp := make([]dse.Point, len(points))
		copy(cp, points)
		mutate(cp)
		if len(check(cp)) == 0 {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	corrupt("tpp drift", CheckConsistency, func(ps []dse.Point) { ps[0].TPP *= 1.01 })
	corrupt("area drift", CheckConsistency, func(ps []dse.Point) { ps[3].AreaMM2 *= 1.02 })
	corrupt("cost drift", CheckConsistency, func(ps []dse.Point) { ps[5].DieCostUSD *= 0.5 })
	corrupt("class flip", CheckConsistency, func(ps []dse.Point) {
		ps[1].Oct2023Class = (ps[1].Oct2023Class + 1) % 3
	})
	corrupt("mfu out of range", CheckBounds, func(ps []dse.Point) { ps[7].Result.PrefillMFU = 1.2 })
	// Monotonicity: slow down one design's larger-HBM sibling so more
	// bandwidth appears to hurt (the checker only reads TTFT/TBT, so the
	// op profiles can stay untouched).
	corrupt("hbm monotonicity broken", CheckMonotonicity, func(ps []dse.Point) {
		for i := range ps {
			for j := range ps {
				a, b := ps[i].Config, ps[j].Config
				if a.HBMBandwidthGBs < b.HBMBandwidthGBs &&
					a.SystolicDimX == b.SystolicDimX && a.LanesPerCore == b.LanesPerCore &&
					a.L1KB == b.L1KB && a.L2MB == b.L2MB && a.DeviceBWGBs == b.DeviceBWGBs {
					ps[j].Result.TTFTSeconds = ps[i].Result.TTFTSeconds * 2
					return
				}
			}
		}
		t.Fatal("no HBM-only pair found")
	})
	// CheckParetoFronts differentially verifies the ParetoFront
	// implementation against the non-domination definition, so it cannot be
	// tripped by corrupting points (it recomputes the front from the same
	// data); its failure modes are covered by the dse-level Pareto tests.
}

// TestProfileCheckerDetectsViolations is the per-operator checker's
// self-test, on profiles batch.Evaluator.Sweep computed for a few Table 3
// designs: each corruption must be reported, and the clean profiles pass.
func TestProfileCheckerDetectsViolations(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	g, err := ir.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := dse.Table3(4800, []float64{600}).Expand()[:8]
	out, err := (&batch.Evaluator{Engine: sim.New().Engine}).Sweep(context.Background(), cfgs, g)
	if err != nil {
		t.Fatal(err)
	}
	if viols := CheckProfiles(out.Results); len(viols) != 0 {
		t.Fatalf("clean profiles flagged: %s", viols[0])
	}
	corrupt := func(name string, mutate func(*sim.Result)) {
		cp := make([]sim.Result, len(out.Results))
		copy(cp, out.Results)
		r := &cp[2]
		r.PrefillOps = append([]perf.Time(nil), r.PrefillOps...)
		r.DecodeOps = append([]perf.Time(nil), r.DecodeOps...)
		mutate(r)
		if len(CheckProfiles(cp)) == 0 {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	corrupt("latency sum broken", func(r *sim.Result) { r.TTFTSeconds *= 2 })
	corrupt("op below its bound", func(r *sim.Result) {
		// The phase total follows the op, so only the bound is broken.
		op := &r.DecodeOps[0]
		cut := op.Seconds - 0.5*math.Max(op.ComputeSeconds, op.DRAMSeconds)
		op.Seconds -= cut
		r.TBTSeconds -= cut
	})
	corrupt("profile missing", func(r *sim.Result) { r.PrefillOps = nil })
}

// TestCacheConsistency is the cache half of the differential layer:
// cached evaluation of a grid must agree bit for bit with the uncached
// single-design reference, and a second pass served entirely from cache
// must reproduce the first.
func TestCacheConsistency(t *testing.T) {
	g := dse.Table3(4800, []float64{600})
	w := model.PaperWorkload(model.Llama3_8B())

	cached := dse.NewExplorer()
	first, err := cached.Run(g, w)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := ReferenceExplorer().Run(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffPointsExact(bare, first); len(diffs) != 0 {
		t.Errorf("cached and uncached evaluation disagree in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
	}
	if !reflect.DeepEqual(first, bare) {
		t.Error("cached and uncached evaluation disagree")
	}
	warm, err := cached.Run(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if stats := cached.Cache.Stats(); stats.Hits == 0 {
		t.Error("second pass did not hit the cache")
	}
	if diffs := DiffPointsExact(first, warm); len(diffs) != 0 {
		t.Errorf("cache-served pass differs from the original evaluation in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
	}
	if !reflect.DeepEqual(first, warm) {
		t.Error("cache-served pass differs from the original evaluation")
	}
}
