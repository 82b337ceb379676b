package dse

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/store"
)

func TestTable3GridSizesMatchPaper(t *testing.T) {
	// Fig. 6 sweeps 512 designs at one device bandwidth; Fig. 7 sweeps 1536
	// per TPP at three device bandwidths.
	g6 := Table3(4800, []float64{600})
	if g6.Size() != 512 {
		t.Errorf("Table 3 @ 600 GB/s size = %d, want 512", g6.Size())
	}
	g7 := Table3(2400, []float64{500, 700, 900})
	if g7.Size() != 1536 {
		t.Errorf("Table 3 @ 3 BWs size = %d, want 1536", g7.Size())
	}
	if got := len(g7.Expand()); got != 1536 {
		t.Errorf("Table 3 Expand() = %d configs, want 1536", got)
	}
	g5 := Table5()
	if g5.Size() != 2304 {
		t.Errorf("Table 5 size = %d, want 2304", g5.Size())
	}
}

func TestExpandRespectsTPPBudget(t *testing.T) {
	for _, tpp := range []float64{1600, 2400, 4800} {
		for _, cfg := range Table3(tpp, []float64{600}).Expand() {
			if cfg.TPP() >= tpp {
				t.Fatalf("%s: TPP %.1f ≥ budget %.0f", cfg.Name, cfg.TPP(), tpp)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s invalid: %v", cfg.Name, err)
			}
		}
	}
}

func TestExpandSkipsOversizedCores(t *testing.T) {
	// At a tiny TPP budget, large-core combinations are dropped rather than
	// emitted invalid.
	g := Table3(300, []float64{600})
	for _, cfg := range g.Expand() {
		if cfg.TPP() >= 300 {
			t.Fatalf("oversized config survived: %s", cfg.Name)
		}
	}
}

func smallGrid(tpp float64) Grid {
	return Grid{
		Name:            "test",
		TPPTarget:       tpp,
		SystolicDims:    []int{16},
		LanesPerCore:    []int{2, 4},
		L1KB:            []int{192, 1024},
		L2MB:            []int{32, 64},
		HBMBandwidthGBs: []float64{2000, 3200},
		DeviceBWGBs:     []float64{600},
		HBMCapacityGB:   80,
		ClockGHz:        arch.A100ClockGHz,
	}
}

func TestRunEvaluatesEveryPoint(t *testing.T) {
	e := NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	pts, err := e.Run(smallGrid(4800), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("got %d points, want 16", len(pts))
	}
	for _, p := range pts {
		if p.TTFT() <= 0 || p.TBT() <= 0 {
			t.Errorf("%s: non-positive latency", p.Config.Name)
		}
		if p.AreaMM2 <= 0 || p.DieCostUSD <= 0 || p.GoodDieCostUSD < p.DieCostUSD {
			t.Errorf("%s: inconsistent area/cost: %+v", p.Config.Name, p)
		}
		if p.TPP >= 4800 {
			t.Errorf("%s: TPP %.0f out of budget", p.Config.Name, p.TPP)
		}
		if p.PD <= 0 {
			t.Errorf("%s: PD should be positive on 7 nm", p.Config.Name)
		}
		wantReticle := p.AreaMM2 <= arch.ReticleLimitMM2
		if p.FitsReticle != wantReticle {
			t.Errorf("%s: FitsReticle inconsistent with area %.0f", p.Config.Name, p.AreaMM2)
		}
	}
}

func TestCostProductsAndCompliance(t *testing.T) {
	e := NewExplorer()
	pts, err := e.Run(smallGrid(2400), model.PaperWorkload(model.Llama3_8B()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := p.TTFTCostProduct(); math.Abs(got-p.TTFT()*1e3*p.DieCostUSD) > 1e-9 {
			t.Errorf("TTFTCostProduct inconsistent: %v", got)
		}
		wantCompliant := p.Oct2023Class == policy.NotApplicable && p.FitsReticle
		if p.Compliant() != wantCompliant {
			t.Errorf("%s: Compliant() inconsistent", p.Config.Name)
		}
	}
}

func TestFilterBestPareto(t *testing.T) {
	pts := []Point{
		{AreaMM2: 100, Result: resultWith(10, 1)},
		{AreaMM2: 200, Result: resultWith(8, 2)},
		{AreaMM2: 300, Result: resultWith(6, 3)},
		{AreaMM2: 400, Result: resultWith(7, 4)}, // dominated by 300 on TTFT
	}
	small := Filter(pts, func(p Point) bool { return p.AreaMM2 <= 200 })
	if len(small) != 2 {
		t.Fatalf("Filter kept %d, want 2", len(small))
	}
	best, err := Best(pts, MetricTTFT)
	if err != nil || best.AreaMM2 != 300 {
		t.Errorf("Best TTFT = %+v, %v; want the 300 mm² point", best.AreaMM2, err)
	}
	if _, err := Best(nil, MetricTTFT); err == nil {
		t.Error("Best on empty set should error")
	}
	front := ParetoFront(pts, MetricArea, MetricTTFT)
	if len(front) != 3 {
		t.Fatalf("Pareto front size %d, want 3 (the 400 mm² point is dominated)", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].AreaMM2 < front[i-1].AreaMM2 {
			t.Error("Pareto front not sorted by area")
		}
		if front[i].TTFT() >= front[i-1].TTFT() {
			t.Error("Pareto front TTFT should strictly improve with area")
		}
	}
	if ParetoFront(nil, MetricArea, MetricTTFT) != nil {
		t.Error("empty Pareto front should be nil")
	}
}

func resultWith(ttftMS, tbtMS float64) sim.Result {
	return sim.Result{TTFTSeconds: ttftMS / 1e3, TBTSeconds: tbtMS / 1e3}
}

func TestHigherMemBWNeverHurtsTBT(t *testing.T) {
	// Property over the mini-sweep: within identical configs differing only
	// in memory bandwidth, TBT is non-increasing in bandwidth.
	e := NewExplorer()
	pts, err := e.Run(smallGrid(4800), model.PaperWorkload(model.Llama3_8B()))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		lanes, l1, l2 int
	}
	byKey := map[key]map[float64]float64{}
	for _, p := range pts {
		k := key{p.Config.LanesPerCore, p.Config.L1KB, p.Config.L2MB}
		if byKey[k] == nil {
			byKey[k] = map[float64]float64{}
		}
		byKey[k][p.Config.HBMBandwidthGBs] = p.TBT()
	}
	for k, m := range byKey {
		if m[3200] > m[2000]*1.0001 {
			t.Errorf("%+v: TBT worsened with more bandwidth: %v vs %v", k, m[3200], m[2000])
		}
	}
}

func TestEvaluatePropagatesErrors(t *testing.T) {
	e := NewExplorer()
	bad := arch.A100()
	bad.L2MB = 0
	if _, err := e.Evaluate([]arch.Config{bad}, model.PaperWorkload(model.Llama3_8B())); err == nil {
		t.Error("invalid config should surface an error")
	}
	w := model.PaperWorkload(model.Llama3_8B())
	w.TensorParallel = 3
	if _, err := e.Evaluate([]arch.Config{arch.A100()}, w); err == nil {
		t.Error("invalid workload should surface an error")
	}
}

func TestEvaluateReturnsPartialResultsOnBadConfig(t *testing.T) {
	// One invalid design among good ones must not discard the sweep: the
	// good points come back alongside an error naming the bad design.
	e := NewExplorer()
	bad := arch.A100()
	bad.L2MB = 0
	bad.Name = "broken-design"
	configs := []arch.Config{arch.A100(), bad, arch.A100().WithCores(64)}
	pts, err := e.Evaluate(configs, model.PaperWorkload(model.Llama3_8B()))
	if err == nil {
		t.Fatal("expected an error for the invalid config")
	}
	if !strings.Contains(err.Error(), "broken-design") {
		t.Errorf("error should name the failing design: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d partial points, want 2", len(pts))
	}
	if pts[0].Config.Name != "modeled-A100" || pts[1].Config.CoreCount != 64 {
		t.Errorf("partial points out of order: %s, %s", pts[0].Config.Name, pts[1].Config.Name)
	}
}

func TestEvaluateContextCancellation(t *testing.T) {
	e := NewExplorer()
	e.Parallelism = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the sweep must abort before evaluating everything
	pts, err := e.RunContext(ctx, Table3(4800, []float64{600}), model.PaperWorkload(model.Llama3_8B()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) >= 512 {
		t.Errorf("cancelled sweep still evaluated all %d points", len(pts))
	}
}

func TestCacheSkipsReSimulation(t *testing.T) {
	e := NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	g := smallGrid(4800)
	if _, err := e.Run(g, w); err != nil {
		t.Fatal(err)
	}
	cold := e.Cache.Stats()
	if cold.Hits != 0 || cold.Len == 0 {
		t.Fatalf("cold sweep stats unexpected: %+v", cold)
	}
	// The same grid under a different name must be served from cache,
	// with the new display names restored on the cached points.
	g2 := g
	g2.Name = "renamed"
	pts, err := e.Run(g2, w)
	if err != nil {
		t.Fatal(err)
	}
	warm := e.Cache.Stats()
	if warm.Hits != uint64(len(pts)) {
		t.Errorf("warm sweep hits = %d, want %d", warm.Hits, len(pts))
	}
	for _, p := range pts {
		if !strings.Contains(p.Config.Name, "renamed") {
			t.Errorf("cached point kept stale name %q", p.Config.Name)
		}
		if p.TTFT() <= 0 || p.DieCostUSD <= 0 {
			t.Errorf("cached point lost data: %+v", p)
		}
	}
	// A different workload must not hit.
	if _, err := e.Run(g, model.PaperWorkload(model.GPT3_175B())); err != nil {
		t.Fatal(err)
	}
	if after := e.Cache.Stats(); after.Hits != warm.Hits {
		t.Errorf("different workload produced spurious hits: %+v", after)
	}
}

// TestConcurrentIdenticalSweepsSingleFlight runs the same grid from many
// goroutines over one shared explorer and proves — by counting the
// dse.evaluate spans whose cache attribute says "miss" — that each unique
// design was simulated exactly once; every other lookup was served by the
// memory tier or by sharing a racing caller's in-flight computation.
func TestConcurrentIdenticalSweepsSingleFlight(t *testing.T) {
	const sweeps = 8
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	ex := NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	g := smallGrid(4800)
	unique := g.Size()

	var wg sync.WaitGroup
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ex.RunContext(ctx, g, w)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	outcomes := make(map[string]int)
	for _, sp := range rec.Spans() {
		if sp.Name != "dse.evaluate" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "cache" {
				outcomes[a.Value.(string)]++
			}
		}
	}
	total := 0
	for _, n := range outcomes {
		total += n
	}
	if total != sweeps*unique {
		t.Fatalf("recorded %d evaluate outcomes, want %d (%v)", total, sweeps*unique, outcomes)
	}
	if outcomes[store.Miss.String()] != unique {
		t.Errorf("%d simulations for %d unique designs (%v)",
			outcomes[store.Miss.String()], unique, outcomes)
	}
	st := ex.Cache.Stats()
	if st.Misses != uint64(unique) {
		t.Errorf("store counted %d misses, want %d", st.Misses, unique)
	}
	if st.Hits != uint64(sweeps*unique-unique) {
		t.Errorf("store counted %d hits, want %d", st.Hits, sweeps*unique-unique)
	}
}

func TestCacheKeyIgnoresNameOnly(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	a, b := arch.A100(), arch.A100()
	b.Name = "same-silicon-other-name"
	if CacheKey(a, w) != CacheKey(b, w) {
		t.Error("renaming a config must not change its cache key")
	}
	b.L1KB++
	if CacheKey(a, w) == CacheKey(b, w) {
		t.Error("distinct silicon must produce distinct keys")
	}
	w2 := w
	w2.Batch++
	if CacheKey(a, w) == CacheKey(a, w2) {
		t.Error("distinct workloads must produce distinct keys")
	}
	// WeightBits 0 means FP16: both spellings must share a key.
	w16 := w
	w16.WeightBits = 16
	if CacheKey(a, w) != CacheKey(a, w16) {
		t.Error("WeightBits 0 and 16 should fingerprint identically")
	}
}

func TestGridNamesAreDescriptive(t *testing.T) {
	cfgs := Table3(4800, []float64{600}).Expand()
	if !strings.Contains(cfgs[0].Name, "table3-tpp4800") {
		t.Errorf("config name should carry the grid name: %s", cfgs[0].Name)
	}
}

func TestParallelismConfigurable(t *testing.T) {
	e := NewExplorer()
	e.Parallelism = 2
	pts, err := e.Run(smallGrid(4800), model.PaperWorkload(model.Llama3_8B()))
	if err != nil || len(pts) != 16 {
		t.Fatalf("parallelism=2 run failed: %v (%d points)", err, len(pts))
	}
}
