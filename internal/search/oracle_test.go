package search

import (
	"context"
	"testing"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
)

// oracleBudgetFrac is the convergence contract: every adaptive engine
// must recover the true front within this fraction of the exhaustive
// evaluation count.
const oracleBudgetFrac = 0.25

// oracleRecoveryMin is the fraction of true-front designs (by config
// hash) an engine's front must contain within the budget.
const oracleRecoveryMin = 0.90

// trueFront evaluates a grid exhaustively through dse and returns the
// feasible Pareto front on (TTFT, area) plus the total design count —
// the golden oracle the engines are pinned against.
func trueFront(t *testing.T, ex *dse.Explorer, g dse.Grid, w model.Workload) (front []dse.Point, designs int) {
	t.Helper()
	cfgs := g.Expand()
	pts, err := ex.EvaluateContext(context.Background(), cfgs, w)
	if err != nil {
		t.Fatalf("exhaustive evaluation: %v", err)
	}
	feasible := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	return dse.ParetoFront(feasible, dse.MetricTTFT, dse.MetricArea), len(cfgs)
}

func hashSet(front []dse.Point) map[uint64]bool {
	s := make(map[uint64]bool, len(front))
	for _, p := range front {
		s[ir.ConfigHash(p.Config)] = true
	}
	return s
}

// TestEnginesMatchExhaustiveOracle is the subsystem's anchor: on the
// exact Table 3 and Table 5 grids every engine's front must be
// dominated-by-or-match the exhaustive front, recover ≥90% of it by
// design hash, and do so within ≤25% of the exhaustive evaluation
// count.
func TestEnginesMatchExhaustiveOracle(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	grids := []dse.Grid{
		dse.Table3(4800, []float64{600}),
		dse.Table5(),
	}
	for _, g := range grids {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			ex := dse.NewExplorer()
			truth, designs := trueFront(t, ex, g, w)
			if len(truth) == 0 {
				t.Fatal("oracle front is empty")
			}
			truthHashes := hashSet(truth)
			budget := int(oracleBudgetFrac * float64(designs))
			space := FromGrid(g)
			prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}

			for _, name := range []string{"nsga2", "anneal", "pattern"} {
				name := name
				t.Run(name, func(t *testing.T) {
					eng, err := New(name, space, 1)
					if err != nil {
						t.Fatal(err)
					}
					// Engines share the explorer's memo cache: unique designs
					// across engines are simulated once, so the whole oracle
					// suite costs one exhaustive sweep.
					r := &Runner{Explorer: ex}
					out, err := r.Run(context.Background(), prob, eng, budget, 1)
					if err != nil {
						t.Fatal(err)
					}
					if out.Evaluations > budget {
						t.Errorf("spent %d evaluations, budget %d", out.Evaluations, budget)
					}
					if len(out.Front) == 0 {
						t.Fatal("engine front is empty")
					}
					assertDominatedByOrMatch(t, out.Front, truth)
					recovered := 0
					for _, r := range out.Front {
						if truthHashes[r.Hash] {
							recovered++
						}
					}
					rec := float64(recovered) / float64(len(truthHashes))
					t.Logf("%s on %s: %d/%d front designs recovered (%.0f%%) in %d/%d evaluations",
						name, g.Name, recovered, len(truthHashes), 100*rec, out.Evaluations, designs)
					if rec < oracleRecoveryMin {
						t.Errorf("recovered %.0f%% of the true front, want >= %.0f%%",
							100*rec, 100*oracleRecoveryMin)
					}
				})
			}
		})
	}
}

// assertDominatedByOrMatch checks every engine-front point against the
// oracle: it must either be a true-front design (by hash) or be weakly
// dominated by some true-front point — and it must never strictly
// dominate a true-front point, which would mean the "exhaustive" front
// missed a design.
func assertDominatedByOrMatch(t *testing.T, got []Result, truth []dse.Point) {
	t.Helper()
	truthHashes := hashSet(truth)
	truthObjs := make([][2]float64, len(truth))
	for i, p := range truth {
		truthObjs[i] = [2]float64{p.TTFT() * 1e3, p.AreaMM2}
	}
	for _, r := range got {
		if truthHashes[r.Hash] {
			continue
		}
		dominated := false
		for _, to := range truthObjs {
			if Dominates(r.Objs, to) {
				t.Fatalf("engine front point %s (%v) strictly dominates a true-front point (%v): oracle miss",
					r.Point.Config.Name, r.Objs, to)
			}
			//lint:ignore floateq oracle identity check: same design evaluated through the same pipeline must agree bitwise
			if Dominates(to, r.Objs) || to == r.Objs {
				dominated = true
			}
		}
		if !dominated {
			t.Errorf("engine front point %s (%v) neither matches nor is dominated by the true front",
				r.Point.Config.Name, r.Objs)
		}
	}
}

// TestGridEngineIsExhaustive pins the oracle path itself: the grid
// engine with a full budget enumerates every design exactly once and
// reproduces the dse front bit-for-bit.
func TestGridEngineIsExhaustive(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	ex := dse.NewExplorer()
	truth, designs := trueFront(t, ex, g, w)

	space := FromGrid(g)
	eng, err := New("grid", space, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Explorer: ex}
	out, err := r.Run(context.Background(), Problem{
		Space: space, Workload: w, Objectives: ObjectivesLatencyArea(),
	}, eng, g.Size(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations != designs {
		t.Errorf("grid engine evaluated %d designs, exhaustive dse evaluated %d", out.Evaluations, designs)
	}
	gotHashes := hashSet(nil)
	for _, fr := range out.Front {
		gotHashes[fr.Hash] = true
	}
	wantHashes := hashSet(truth)
	for h := range wantHashes {
		if !gotHashes[h] {
			t.Errorf("true-front design %x missing from grid-engine front", h)
		}
	}
	for _, fr := range out.Front {
		if !wantHashes[fr.Hash] {
			// dse.ParetoFront drops duplicate-objective ties; the archive
			// keeps them. Any extra design must tie a true-front point
			// exactly.
			tied := false
			for _, p := range truth {
				//lint:ignore floateq oracle identity check: same design evaluated through the same pipeline must agree bitwise
				if fr.Objs == [2]float64{p.TTFT() * 1e3, p.AreaMM2} {
					tied = true
					break
				}
			}
			if !tied {
				t.Errorf("grid-engine front has %s (%v) absent from the dse front", fr.Point.Config.Name, fr.Objs)
			}
		}
	}
}

// TestOracleBudgetIsMeaningful guards the contract arithmetic: the
// budget handed to engines really is at most a quarter of the space.
func TestOracleBudgetIsMeaningful(t *testing.T) {
	for _, g := range []dse.Grid{dse.Table3(4800, []float64{600}), dse.Table5()} {
		budget := int(oracleBudgetFrac * float64(len(g.Expand())))
		if budget*4 > g.Size() {
			t.Errorf("%s: budget %d exceeds a quarter of the %d-point lattice", g.Name, budget, g.Size())
		}
		if budget < 32 {
			t.Errorf("%s: budget %d too small to be a meaningful convergence test", g.Name, budget)
		}
	}
}
