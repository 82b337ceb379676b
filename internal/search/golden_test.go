package search

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dse"
	"repro/internal/golden"
	"repro/internal/model"
)

// reducedTable3 is the fixture sub-grid: a 32-design slice of Table 3,
// small enough that fixtures stay readable but rich enough that every
// engine makes non-trivial moves.
func reducedTable3() dse.Grid {
	return dse.Grid{
		Name:            "table3-reduced",
		TPPTarget:       4800,
		SystolicDims:    []int{16, 32},
		LanesPerCore:    []int{1, 4},
		L1KB:            []int{192, 512},
		L2MB:            []int{32, 64},
		HBMBandwidthGBs: []float64{2000, 2800},
		DeviceBWGBs:     []float64{600},
		HBMCapacityGB:   80,
		ClockGHz:        dse.Table5().ClockGHz,
	}
}

// searchFixture is the golden snapshot of one engine run: outcome
// counters plus the full front, identified by config name and hex hash.
type searchFixture struct {
	Engine      string          `json:"engine"`
	Seed        uint64          `json:"seed"`
	Budget      int             `json:"budget"`
	Evaluations int             `json:"evaluations"`
	Generations int             `json:"generations"`
	Front       []fixtureDesign `json:"front"`
}

type fixtureDesign struct {
	Name    string     `json:"name"`
	Hash    string     `json:"hash"`
	TTFTMs  float64    `json:"ttft_ms"`
	AreaMM2 float64    `json:"area_mm2"`
	Objs    [2]float64 `json:"objs"`
}

// TestGoldenSearchFixtures pins one fixed-seed run per engine on the
// reduced Table-3 sub-grid, byte-for-byte via the golden harness.
// Regenerate after an intentional engine change with
// `go test ./internal/search/... -update`.
func TestGoldenSearchFixtures(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := reducedTable3()
	space := FromGrid(g)
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	ex := dse.NewExplorer()
	const seed, budget = 20250108, 16
	for _, name := range Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := New(name, space, seed)
			if err != nil {
				t.Fatal(err)
			}
			out, err := (&Runner{Explorer: ex}).Run(context.Background(), prob, eng, budget, seed)
			if err != nil {
				t.Fatal(err)
			}
			golden.Compare(t, "search_"+name, fixtureOf(out))
		})
	}
}

// TestGoldenSearchJan2025Fixtures pins each adaptive engine at scale: a
// budget-1536 run on the jan2025 lattice, whose fronts hold a few
// hundred designs, so the engines' ranking, archive and neighbour-scan
// bookkeeping all run long enough for an ordering change to show.
func TestGoldenSearchJan2025Fixtures(t *testing.T) {
	prob := Jan2025Problem(model.PaperWorkload(model.GPT3_175B()))
	ex := dse.NewExplorer()
	const seed, budget = 5, 1536
	for _, name := range []string{"nsga2", "anneal", "pattern"} {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name, prob.Space, seed)
			if err != nil {
				t.Fatal(err)
			}
			out, err := (&Runner{Explorer: ex}).Run(context.Background(), prob, eng, budget, seed)
			if err != nil {
				t.Fatal(err)
			}
			golden.Compare(t, "search_jan2025_"+name, fixtureOf(out))
		})
	}
}

// fixtureOf snapshots a run's counters and front.
func fixtureOf(out Outcome) searchFixture {
	fix := searchFixture{
		Engine:      out.Engine,
		Seed:        out.Seed,
		Budget:      out.Budget,
		Evaluations: out.Evaluations,
		Generations: out.Generations,
	}
	for _, r := range out.Front {
		fix.Front = append(fix.Front, fixtureDesign{
			Name:    r.Point.Config.Name,
			Hash:    fmt.Sprintf("%016x", r.Hash),
			TTFTMs:  r.Point.TTFT() * 1e3,
			AreaMM2: r.Point.AreaMM2,
			Objs:    r.Objs,
		})
	}
	return fix
}
