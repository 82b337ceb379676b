// Package repro's benchmark harness regenerates every table and figure in
// the paper's evaluation as a testing.B benchmark, so
//
//	go test -bench=. -benchmem
//
// reproduces the full study and reports how long each artifact takes to
// regenerate. Each benchmark iteration builds a fresh Lab, whose explorer
// starts with an empty point store, so the numbers reflect true
// regeneration cost.
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

// BenchmarkSweepTable3 measures the explorer's one sweep path on the Fig 6
// grid. "cold" is a fresh NewExplorer per iteration — empty point store,
// every design evaluated through the windowed batch evaluator — and
// "warm" a pre-warmed NewExplorer serving every design from its point
// store. TestBatchScalarBitEqualOnGoldenGrids pins both to bit-equal
// results against the single-design reference.
func BenchmarkSweepTable3(b *testing.B) {
	benchSweep(b, dse.Table3(4800, []float64{600}))
}

// BenchmarkSweepTable5 is BenchmarkSweepTable3 on the paper's 2304-design
// Table 5 grid: 72 windows that each meet about three of the four L2
// sizes, the sweep whose windows share the most L2 blocking searches.
func BenchmarkSweepTable5(b *testing.B) {
	benchSweep(b, dse.Table5())
}

// benchSweep runs the cold and warm sweeps of grid on the GPT-3 workload.
func benchSweep(b *testing.B, grid dse.Grid) {
	w := model.PaperWorkload(model.GPT3_175B())
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dse.NewExplorer().Run(grid, w); err != nil {
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

// TestWarmSweepAllocsBelowCold pins the warm-LRU allocation fix: a
// fully cache-served sweep must allocate strictly less than a cold one on
// the same explorer set-up (NewExplorer at Parallelism 1). It regressed
// once — the sharded LRU heap-allocated an FNV hasher and a []byte key
// copy on every probe and dse.cacheKey added three more fmt allocations,
// making the "fully memoized" path allocate MORE per point than
// recomputation (5034 vs 4565 allocs/op before the fix).
func TestWarmSweepAllocsBelowCold(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	grid := dse.Table3(4800, []float64{600})
	explorer := func() *dse.Explorer {
		ex := dse.NewExplorer()
		ex.Parallelism = 1
		return ex
	}
	cold := testing.AllocsPerRun(3, func() {
		if _, err := explorer().Run(grid, w); err != nil {
			t.Fatal(err)
		}
	})
	warmEx := explorer()
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

// BenchmarkStreamOverhead prices a stream-hub-like sweep visitor
// (BENCH_obs.json): the cold 512-design Table 3 grid sweep with the
// visitor must stay within ~5% of the same sweep without one. A sweep
// calls its visitor once per finished window of dse.WindowSize points,
// so the visitor's cost is amortised over a window of simulations.
func BenchmarkStreamOverhead(b *testing.B) {
	w := model.PaperWorkload(model.GPT3_175B())
	g := dse.Table3(4800, []float64{600})
	sweep := func(b *testing.B, visit dse.Visitor) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dse.NewExplorer().NewSession(w).SweepGrid(context.Background(), g, nil, visit); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sweep/plain", func(b *testing.B) { sweep(b, nil) })
	b.Run("sweep/progress", func(b *testing.B) {
		// The visitor mimics a stream hub's bookkeeping: it reads the
		// window's points in place, then takes a mutex once per window
		// for a counter and a running aggregate, contended by the sweep
		// workers.
		var mu sync.Mutex
		points, area := 0, 0.0
		sweep(b, func(win dse.Window) {
			n, a := 0, 0.0
			for k, p := range win.Points {
				if win.Done[k] {
					n++
					a += p.AreaMM2
				}
			}
			mu.Lock()
			points += n
			area += a
			mu.Unlock()
		})
		if points == 0 || area == 0 {
			b.Fatal("visitor never fired")
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
