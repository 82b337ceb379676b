package repro

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/server"
)

var updateBudgets = flag.Bool("update", false, "rewrite testdata/alloc_budgets.json with the measured numbers")

// raceEnabled is set by race_test.go when the race detector is on: it
// allocates on its own, so allocation counts under -race say nothing.
var raceEnabled bool

const allocBudgetsFile = "testdata/alloc_budgets.json"

// allocBudgets is testdata/alloc_budgets.json: per case, the heap
// allocations and bytes one operation may take, as measured with the Go
// toolchain Go names.
type allocBudgets struct {
	Go    string        `json:"go"`
	Cases []allocBudget `json:"cases"`
}

type allocBudget struct {
	Name   string `json:"name"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// allocCase is one measured operation: setup builds what every run
// shares and returns the operation.
type allocCase struct {
	name  string
	runs  int
	setup func(t *testing.T) func()
}

// allocCases are the paths whose memory claims the budgets pin: cold and
// warm Table 3 and Table 5 sweeps, each search engine at the benchmark's
// budget on the jan2025 lattice, one warm Table 5 DSE job (its POST
// /v1/dse through the server's handler and its run on the queue worker,
// stream hub attached, no subscriber, tracing off), and one POST
// /v1/classify through the handler. Explorers run at Parallelism 1, so
// no count depends on the CPU count.
func allocCases() []allocCase {
	w := model.PaperWorkload(model.GPT3_175B())
	explorer := func() *dse.Explorer {
		ex := dse.NewExplorer()
		ex.Parallelism = 1
		return ex
	}
	sweep := func(grid dse.Grid, warm bool) func(*testing.T) func() {
		return func(t *testing.T) func() {
			ex := explorer()
			if _, err := ex.Run(grid, w); err != nil {
				t.Fatal(err)
			}
			return func() {
				if !warm {
					ex = explorer()
				}
				if _, err := ex.Run(grid, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cases := []allocCase{
		{"sweep/table3/cold", 10, sweep(dse.Table3(4800, []float64{600}), false)},
		{"sweep/table3/warm", 10, sweep(dse.Table3(4800, []float64{600}), true)},
		{"sweep/table5/cold", 5, sweep(dse.Table5(), false)},
		{"sweep/table5/warm", 5, sweep(dse.Table5(), true)},
	}
	for _, engine := range search.Engines() {
		cases = append(cases, allocCase{"search/jan2025/" + engine, 10, func(t *testing.T) func() {
			const budget, seed = 384, 20250108
			return func() {
				prob := search.Jan2025Problem(w)
				eng, err := search.New(engine, prob.Space, seed)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := (&search.Runner{Explorer: explorer()}).Run(context.Background(), prob, eng, budget, seed); err != nil {
					t.Fatal(err)
				}
			}
		}})
	}
	cases = append(cases, allocCase{"server/dse/table5/warm", 5, func(t *testing.T) func() {
		s := server.New(server.Config{Workers: 1, TraceCapacity: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		t.Cleanup(func() { s.Close() })
		s.Explorer().Parallelism = 1
		// The hook signals each finished job in place of the server's,
		// which would finish the job's stream hub; nobody reads this one.
		finished := make(chan server.JobStatus, 1)
		s.Queue().SetTerminalHook(func(_ *server.Job, st server.JobStatus) { finished <- st })
		h := s.Handler()
		job := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/dse",
				strings.NewReader(`{"table5":true,"rule":"oct2023","objective":"tbt"}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				t.Fatalf("dse: status %d: %s", rec.Code, rec.Body)
			}
			if st := <-finished; st.State != "succeeded" {
				t.Fatalf("dse job: %s (%s)", st.State, st.Error)
			}
		}
		job() // fills the point store
		return job
	}})
	return append(cases, allocCase{"server/classify", 200, func(t *testing.T) func() {
		s := server.New(server.Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		t.Cleanup(func() { s.Close() })
		h := s.Handler()
		classify := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/classify",
				strings.NewReader(`{"tpp":4992,"device_bw_gbs":600,"die_area_mm2":826}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("classify: status %d: %s", rec.Code, rec.Body)
			}
		}
		for i := 0; i < 100; i++ { // fill the route's histograms and span ring
			classify()
		}
		return classify
	}})
}

// measureAllocs returns op's heap allocations (testing.AllocsPerRun, which
// runs at GOMAXPROCS 1) and bytes (the runtime.MemStats.TotalAlloc delta
// over the same calls, AllocsPerRun's warm-up included) per call.
func measureAllocs(runs int, op func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = uint64(testing.AllocsPerRun(runs, op))
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1)
}

// TestAllocationBudgets holds the allocation and byte counts of the
// paths in allocCases to testdata/alloc_budgets.json: allocations within
// max(0.5 %, 4) of their budget, bytes within 3 %. Counts differ between
// toolchains and under the race detector, so on a Go version other than
// the file's, and under -race, the test logs its numbers and skips. A
// change that lowers a number may ratchet the file down with -update; a
// change that raises one must say why in CHANGES.md.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var want allocBudgets
	data, err := os.ReadFile(allocBudgetsFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", allocBudgetsFile, err)
	}
	budget := make(map[string]allocBudget, len(want.Cases))
	for _, b := range want.Cases {
		budget[b.Name] = b
	}
	got := allocBudgets{Go: runtime.Version()}
	for _, c := range allocCases() {
		allocs, bytes := measureAllocs(c.runs, c.setup(t))
		got.Cases = append(got.Cases, allocBudget{Name: c.name, Allocs: allocs, Bytes: bytes})
		t.Logf("%-22s %7d allocs/op %10d B/op", c.name, allocs, bytes)
	}
	if *updateBudgets {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocBudgetsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got.Go != want.Go {
		t.Skipf("budgets were measured with %s, this is %s", want.Go, got.Go)
	}
	for _, g := range got.Cases {
		b, ok := budget[g.Name]
		if !ok {
			t.Errorf("%s: no budget in %s", g.Name, allocBudgetsFile)
			continue
		}
		allocSlack := max(uint64(math.Ceil(0.005*float64(b.Allocs))), 4)
		if g.Allocs > b.Allocs+allocSlack {
			t.Errorf("%s: %d allocs/op, over its budget of %d (+%d allowed)", g.Name, g.Allocs, b.Allocs, allocSlack)
		}
		if byteLimit := uint64(1.03 * float64(b.Bytes)); g.Bytes > byteLimit {
			t.Errorf("%s: %d B/op, over its budget of %d (+3 %% allowed)", g.Name, g.Bytes, b.Bytes)
		}
	}
}
