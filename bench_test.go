// Package repro's benchmark harness regenerates every table and figure in
// the paper's evaluation as a testing.B benchmark, so
//
//	go test -bench=. -benchmem
//
// reproduces the full study and reports how long each artifact takes to
// regenerate. Each benchmark iteration builds a fresh Lab (no sweep cache)
// so the numbers reflect true regeneration cost.
package repro

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/sim"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab()
		if err := e.Run(lab, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: the ACR rule definitions (pure policy evaluation).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Fig 1a/1b: device classification scatters under the 2022/2023 rules.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// Fig 2: die area vs TPP classification.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// Fig 5: October 2022 TPP-vs-device-bandwidth sweep (GPT-3 175B).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// Fig 6: October 2022 DSE — 512 designs × 2 models.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// Fig 7: October 2023 DSE — 1536 designs × 3 TPP tiers × 2 models.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Table 4: PD-compliant vs non-compliant optimal 2400-TPP designs.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Fig 8: latency × die-cost products over the October 2023 DSE.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Fig 9/10: marketing vs architectural classification consistency.
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Fig 11/12: architecture-first indicator distributions.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// §4.2 headline and §5 externality analyses.
func BenchmarkHeadline(b *testing.B)    { benchExperiment(b, "headline") }
func BenchmarkExternality(b *testing.B) { benchExperiment(b, "externality") }
func BenchmarkHBMRule(b *testing.B)     { benchExperiment(b, "hbmrule") }

// Substrate micro-benchmarks: the building blocks the study is made of.

// BenchmarkSimulateLayerGPT3 times one full prefill+decode layer simulation
// on the modeled A100 — the unit of work every DSE point pays twice.
func BenchmarkSimulateLayerGPT3(b *testing.B) {
	s := sim.New()
	w := model.PaperWorkload(model.GPT3_175B())
	cfg := arch.A100()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLayerLlama3 is the Llama 3 8B counterpart.
func BenchmarkSimulateLayerLlama3(b *testing.B) {
	s := sim.New()
	w := model.PaperWorkload(model.Llama3_8B())
	cfg := arch.A100()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSESweep512 times the Fig 6 sweep without rendering.
func BenchmarkDSESweep512(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dse.NewExplorer().Run(g, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeCompliant times the core facade's constrained search.
func BenchmarkOptimizeCompliant(b *testing.B) {
	w := model.PaperWorkload(model.Llama3_8B())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeCompliant(core.RuleOct2022, 4800, w, core.MinTBT); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDesign times a single full design report.
func BenchmarkEvaluateDesign(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	cfg := arch.A100()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension-analysis benchmarks (§2.3 chiplets/binning, §5.4 gaming,
// §6.1 metric history, parallelism and serving).
func BenchmarkChipletEscape(b *testing.B)    { benchExperiment(b, "chipletescape") }
func BenchmarkGamingSafeHarbor(b *testing.B) { benchExperiment(b, "gaming") }
func BenchmarkMetricsHistory(b *testing.B)   { benchExperiment(b, "metricshistory") }
func BenchmarkBinning(b *testing.B)          { benchExperiment(b, "binning") }
func BenchmarkParallelism(b *testing.B)      { benchExperiment(b, "parallelism") }
func BenchmarkServing(b *testing.B)          { benchExperiment(b, "serving") }
func BenchmarkPowerDraw(b *testing.B)        { benchExperiment(b, "powerdraw") }

// Policy-engineering benchmarks.
func BenchmarkWhatIf(b *testing.B)       { benchExperiment(b, "whatif") }
func BenchmarkAudit(b *testing.B)        { benchExperiment(b, "audit") }
func BenchmarkQuantization(b *testing.B) { benchExperiment(b, "quantization") }

// BenchmarkAblation times the model-mechanism ablation study.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkFabCapacity times the wafer-capacity analysis.
func BenchmarkFabCapacity(b *testing.B) { benchExperiment(b, "fabcapacity") }

// Supply-chain and quantity-control benchmarks.
func BenchmarkHBMSupply(b *testing.B) { benchExperiment(b, "hbmsupply") }
func BenchmarkQuota(b *testing.B)     { benchExperiment(b, "quota") }

// Escape-package performance and elasticity benchmarks.
func BenchmarkEscapePerf(b *testing.B) { benchExperiment(b, "escapeperf") }
func BenchmarkTornado(b *testing.B)    { benchExperiment(b, "tornado") }

// Serving-layer benchmarks: the acrserve hot path and the DSE cache win.

// BenchmarkServerClassify times the full synchronous serving hot path —
// HTTP round trip, JSON decode, policy evaluation, JSON encode — for one
// /v1/classify request.
func BenchmarkServerClassify(b *testing.B) {
	s := server.New(server.Config{
		Workers: 1,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"tpp":4992,"device_bw_gbs":600,"die_area_mm2":826}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkDSECacheHit times the Fig 6 sweep served entirely from the
// explorer's warmed result cache — the repeated-grid case the serving
// layer optimises. Compare with BenchmarkDSESweep512 (cold, fresh
// explorer per iteration) for the cache win.
func BenchmarkDSECacheHit(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	ex := dse.NewExplorer()
	if _, err := ex.Run(g, w); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(g, w); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := ex.Cache.Stats(); s.Hits == 0 {
		b.Fatal("benchmark never hit the cache")
	}
}

// BenchmarkSweepTable3Memo measures the memoization layers on the Fig 6
// grid, coldest to warmest. "cold" is uncached evaluation: a fresh engine
// and no point LRU every iteration, so every component term and every
// design point is computed from scratch (the engine still self-warms
// within a single sweep — that sharing is intrinsic to the grid). "engine"
// keeps the point LRU off but shares one simulator across iterations, so
// every compute/feed/DRAM/comm term is a map hit while each point still
// re-aggregates and re-costs. "warm" is the full memoized-DSE path: a
// pre-warmed NewExplorer serving every point from the IR-hash-keyed LRU.
// TestSweepMemoBitEqual pins all three paths to bit-equal results.
func BenchmarkSweepTable3Memo(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	grid := dse.Table3(4800, []float64{600})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := &dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		shared := sim.New()
		if _, err := (&dse.Explorer{Sim: shared, Wafer: cost.N7Wafer}).Run(grid, w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex := &dse.Explorer{Sim: shared, Wafer: cost.N7Wafer}
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex := dse.NewExplorer()
		if _, err := ex.Run(grid, w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := ex.Cache.Stats(); s.Hits == 0 {
			b.Fatal("warm sweep never hit the point cache")
		}
	})
}

// BenchmarkSweepTable3Batch measures the struct-of-arrays batch evaluator
// on the Fig 6 grid, mirroring BenchmarkSweepTable3Memo's ladder. "cold"
// is a fresh batch explorer per iteration (no point LRU, fresh scratch) —
// compare against Memo/cold for the headline batch speedup. "steady" is
// the steady-state hot loop: one shared evaluator whose pooled scratch
// arena is warm, no point LRU, so every iteration re-runs the full
// group-dedup + assembly at zero allocations in the core (the remaining
// allocs are the per-sweep result slices the caller keeps).
// "warm" is the full memoized path: every point served from the LRU.
// TestBatchScalarBitEqualOnGoldenGrids pins all paths to bit-equal
// results against the scalar ladder.
func BenchmarkSweepTable3Batch(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	grid := dse.Table3(4800, []float64{600})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := (&dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}).WithBatch()
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		shared := sim.New()
		ev := &batch.Evaluator{Engine: shared.Engine}
		ex := &dse.Explorer{Sim: shared, Wafer: cost.N7Wafer, Batch: ev}
		if _, err := ex.Run(grid, w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex := dse.NewBatchExplorer()
		if _, err := ex.Run(grid, w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(grid, w); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := ex.Cache.Stats(); s.Hits == 0 {
			b.Fatal("warm batch sweep never hit the point cache")
		}
	})
}

// TestWarmSweepAllocsBelowCold pins the warm-LRU allocation fix: a
// fully cache-served sweep must allocate strictly less than a cold one.
// It regressed once — the sharded LRU heap-allocated an FNV hasher and
// a []byte key copy on every probe and dse.cacheKey added three more
// fmt allocations, making the "fully memoized" path allocate MORE per
// point than recomputation (5034 vs 4565 allocs/op in the recorded
// BENCH_ir_memo.json before the fix).
func TestWarmSweepAllocsBelowCold(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	grid := dse.Table3(4800, []float64{600})
	cold := testing.AllocsPerRun(3, func() {
		ex := &dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer, Parallelism: 1}
		if _, err := ex.Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	warmEx := dse.NewExplorer()
	warmEx.Parallelism = 1
	if _, err := warmEx.Run(grid, w); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(3, func() {
		if _, err := warmEx.Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 512-design sweep: cold %.0f, warm %.0f", cold, warm)
	if warm >= cold {
		t.Errorf("warm sweep allocates %.0f allocs/run, cold %.0f: cache hits must be cheaper than recomputation", warm, cold)
	}

	// The batch path must hold the same ordering — and a steady-state
	// batch sweep (pooled scratch, no LRU) must allocate far below the
	// scalar cold sweep too, since its hot loop is allocation-free and
	// only the escaping result slices remain.
	coldBatch := testing.AllocsPerRun(3, func() {
		ex := (&dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}).WithBatch()
		if _, err := ex.Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	steadyEx := (&dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}).WithBatch()
	if _, err := steadyEx.Run(grid, w); err != nil {
		t.Fatal(err)
	}
	steadyBatch := testing.AllocsPerRun(3, func() {
		if _, err := steadyEx.Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	warmBatchEx := dse.NewBatchExplorer()
	if _, err := warmBatchEx.Run(grid, w); err != nil {
		t.Fatal(err)
	}
	warmBatch := testing.AllocsPerRun(3, func() {
		if _, err := warmBatchEx.Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per 512-design batch sweep: cold %.0f, steady %.0f, warm %.0f", coldBatch, steadyBatch, warmBatch)
	// A fully cache-served batch explorer takes the same point-wise LRU-hit
	// path as the scalar one, so it must match the scalar warm count — not
	// the batch cold count, which the pooled arena drives far below it.
	if warmBatch > warm {
		t.Errorf("warm batch sweep allocates %.0f allocs/run, scalar warm %.0f: cache hits must serve through the same point-wise path", warmBatch, warm)
	}
	if coldBatch >= cold {
		t.Errorf("cold batch sweep allocates %.0f allocs/run, scalar cold %.0f: the grouped arena must allocate less", coldBatch, cold)
	}
	if steadyBatch >= cold {
		t.Errorf("steady batch sweep allocates %.0f allocs/run, scalar cold %.0f: the arena must amortise", steadyBatch, cold)
	}
}

// BenchmarkSearchJan2025 times the adaptive engines on the jan2025
// quantity-cap lattice (~5×10^10 designs, exhaustive enumeration out of
// reach), one full budgeted search per iteration through a cold runner
// and explorer. Each sub-benchmark reports the front size and its 2D
// hypervolume (reference point: 1 ms TBT, H100-level TPP) as extra
// metrics, so BENCH_search.json records search quality next to cost.
// "grid" enumerates the lattice's first <budget> points behind the same
// interface — the floor any adaptive engine must beat on hypervolume.
func BenchmarkSearchJan2025(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	const budget = 384
	const seed = 20250108
	for _, engine := range search.Engines() {
		b.Run(engine, func(b *testing.B) {
			b.ReportAllocs()
			var out search.Outcome
			for i := 0; i < b.N; i++ {
				prob := search.Jan2025Problem(w)
				eng, err := search.New(engine, prob.Space, seed)
				if err != nil {
					b.Fatal(err)
				}
				out, err = (&search.Runner{Explorer: dse.NewExplorer()}).Run(
					context.Background(), prob, eng, budget, seed)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Evaluations), "evals/op")
			b.ReportMetric(float64(len(out.Front)), "front/op")
			b.ReportMetric(search.Hypervolume2D(out.FrontObjs(), 1.0, policy.H100TPP), "hypervol/op")
		})
	}
}

// BenchmarkObsDisabledOverhead pins the observability layer's cost
// contract (BENCH_obs.json): with no recorder in the context, the
// instrumented hot path must stay within ~2% of the pre-instrumentation
// baseline, because obs.Start returns a nil span after one context
// lookup and every nil-span method is a no-op.
//
// "sweep/disabled" vs "sweep/enabled" shows what tracing costs when it
// is actually on; "span/disabled" prices the bare nil fast path (a few
// ns), and "simulate/disabled" the per-point unit of work the sweep
// amortises it over.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	g, err := ir.Lower(w)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.A100()
	grid := dse.Table3(4800, []float64{600})

	b.Run("span/disabled", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sctx, sp := obs.Start(ctx, "bench")
			sp.SetInt("i", i)
			sp.End()
			_ = sctx
		}
	})
	b.Run("span/enabled", func(b *testing.B) {
		ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sctx, sp := obs.Start(ctx, "bench")
			sp.SetInt("i", i)
			sp.End()
			_ = sctx
		}
	})
	b.Run("simulate/disabled", func(b *testing.B) {
		s := sim.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SimulateGraphContext(context.Background(), cfg, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep/disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex := &dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}
			if _, err := ex.EvaluateContext(context.Background(), grid.Expand(), w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep/enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
			ex := &dse.Explorer{Sim: sim.New(), Wafer: cost.N7Wafer}
			if _, err := ex.EvaluateContext(ctx, grid.Expand(), w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamOverhead prices the streaming tentpole's progress
// plumbing (BENCH_obs.json): the cold 512-design Table 3 sweep with a
// per-point progress callback attached must stay within ~5% of the same
// sweep without one. The plumbing is one context lookup per sweep plus
// one indirect call per finished point (dse.WithProgress), so the
// callback's cost is amortised over a full simulation per point.
func BenchmarkStreamOverhead(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	b.Run("sweep/plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dse.NewExplorer().RunContext(context.Background(), g, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep/progress", func(b *testing.B) {
		// The consumer mimics a stream hub's bookkeeping: a counter and a
		// running aggregate under a mutex, contended by the sweep workers.
		var mu sync.Mutex
		points, area := 0, 0.0
		ctx := dse.WithProgress(context.Background(), func(p dse.Point) {
			mu.Lock()
			points++
			area += p.AreaMM2
			mu.Unlock()
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dse.NewExplorer().RunContext(ctx, g, w); err != nil {
				b.Fatal(err)
			}
		}
		if points == 0 || area == 0 {
			b.Fatal("progress callback never fired")
		}
		b.ReportMetric(float64(points)/float64(b.N), "points/op")
	})
}

// BenchmarkLowerGPT3Layer times the workload→operator-graph lowering pass
// on its own — the fixed cost the explorer pays once per sweep rather than
// once per design point.
func BenchmarkLowerGPT3Layer(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ir.Lower(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossVal times the event-driven/analytic cross-validation.
func BenchmarkCrossVal(b *testing.B) { benchExperiment(b, "crossval") }

// BenchmarkRobustness times the Monte-Carlo constant-perturbation study.
func BenchmarkRobustness(b *testing.B) { benchExperiment(b, "robustness") }
