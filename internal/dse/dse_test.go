package dse

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/sim"
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

// TestGridSizeSaturates pins that a grid whose combination count
// overflows int reports a size past any design limit: 1449 entries per
// axis is 1449^6 combinations, which a plain product wraps to a
// negative number.
func TestGridSizeSaturates(t *testing.T) {
	axis := make([]int, 1449)
	bw := make([]float64, 1449)
	g := Grid{SystolicDims: axis, LanesPerCore: axis, L1KB: axis, L2MB: axis,
		HBMBandwidthGBs: bw, DeviceBWGBs: bw}
	if got := g.Size(); got != math.MaxInt {
		t.Errorf("Size() = %d, want math.MaxInt", got)
	}
	if g.Size() <= 65536 {
		t.Error("an overflowing grid fits the 65536-design limit")
	}
	g.DeviceBWGBs = nil
	if got := g.Size(); got != 0 {
		t.Errorf("Size() with an empty axis = %d, want 0", got)
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

// TestGridDesignsCountsExpansion pins Designs to Expand on grids where
// core-count solving drops nothing, some pairs and every pair: at TPP 100
// one core of the 32x32 arrays with 4 or 8 lanes already reaches the
// budget, so Table 3 keeps 384 of its 512 combinations.
func TestGridDesignsCountsExpansion(t *testing.T) {
	empty := Table5()
	empty.L2MB = nil
	for _, c := range []struct {
		g    Grid
		want int
	}{
		{Table3(4800, []float64{600}), 512},
		{Table3(2400, []float64{400, 500, 600}), 1536},
		{Table3(100, []float64{600}), 384},
		{Table3(1, []float64{600}), 0},
		{Table5(), 2304},
		{empty, 0},
	} {
		if got := designs(t, c.g); got != c.want {
			t.Errorf("%s: Designs() = %d, want %d", c.g.Name, got, c.want)
		}
		if got := len(c.g.Expand()); got != c.want {
			t.Errorf("%s: Expand() yields %d designs, want %d", c.g.Name, got, c.want)
		}
	}
}

// TestGridSweepsRefuseOutOfRangeBudget pins the grid sweeps' range
// check. At TPP 1e30 no (dim, lanes) pair's core count fits an int; in
// Table 3 at TPP 4800 with a 4000000000x4000000000 array beside the
// 16x16 one only the large array's pairs overflow. RunContext and
// SweepGrid refuse both grids with arch.ErrOutOfRange before sweeping,
// naming the first such pair and the budget; Designs reports the same
// error and Expand yields no configs. At TPP 1 one core of every pair
// already reaches the budget: that grid is empty, not an error.
func TestGridSweepsRefuseOutOfRangeBudget(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	ex := NewExplorer()
	mixed := Table3(4800, []float64{600})
	mixed.SystolicDims = []int{16, 4000000000}
	for _, c := range []struct {
		g    Grid
		pair string
	}{
		{Table3(1e30, []float64{600}), "16x16 systolic array with 1 lanes per core at TPP budget 1e+30"},
		{mixed, "4000000000x4000000000 systolic array with 1 lanes per core at TPP budget 4800"},
	} {
		pts, err := ex.RunContext(context.Background(), c.g, w)
		if !errors.Is(err, arch.ErrOutOfRange) || len(pts) != 0 {
			t.Fatalf("RunContext on %s: %d points, err %v; want none and arch.ErrOutOfRange", c.g.Name, len(pts), err)
		}
		if msg := err.Error(); !strings.Contains(msg, c.pair) {
			t.Errorf("RunContext on %s: error %q does not name %q", c.g.Name, msg, c.pair)
		}
		if n, derr := c.g.Designs(); n != 0 || derr == nil || derr.Error() != err.Error() {
			t.Errorf("%s: Designs() = %d, %v; want 0 and the sweep's error", c.g.Name, n, derr)
		}
		if cfgs := c.g.Expand(); len(cfgs) != 0 {
			t.Errorf("%s: Expand() yields %d configs of a grid the sweep refuses", c.g.Name, len(cfgs))
		}
		visited := false
		err = ex.NewSession(w).SweepGrid(context.Background(), c.g, nil, func(Window) { visited = true })
		if !errors.Is(err, arch.ErrOutOfRange) || visited {
			t.Errorf("SweepGrid on %s: visited %v, err %v; want no window and arch.ErrOutOfRange", c.g.Name, visited, err)
		}
	}
	if pts, err := ex.RunContext(context.Background(), Table3(1, []float64{600}), w); err != nil || len(pts) != 0 {
		t.Errorf("RunContext at TPP 1: %d points, err %v; want none and no error", len(pts), err)
	}
	if st := ex.Cache.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("refused and empty sweeps probed the store %d times", st.Hits+st.Misses)
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
	if _, err := e.EvaluateContext(context.Background(), []arch.Config{bad}, model.PaperWorkload(model.Llama3_8B())); err == nil {
		t.Error("invalid config should surface an error")
	}
	w := model.PaperWorkload(model.Llama3_8B())
	w.TensorParallel = 3
	if _, err := e.EvaluateContext(context.Background(), []arch.Config{arch.A100()}, w); err == nil {
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
	pts, err := e.EvaluateContext(context.Background(), configs, model.PaperWorkload(model.Llama3_8B()))
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

// TestServedPointsEqualFreshOnes pins what a store hit delivers: after a
// cold sweep, a sweep of the same grid under a new name is served wholly
// from the store, and its points equal, field for field, those of an
// explorer without a store sweeping the renamed grid: names,
// Result.Config, Result.Workload and every scalar.
func TestServedPointsEqualFreshOnes(t *testing.T) {
	for _, c := range []struct {
		g Grid
		m model.Model
	}{
		{Table3(4800, []float64{600}), model.Llama3_8B()},
		{Table5(), model.GPT3_175B()},
	} {
		w := model.PaperWorkload(c.m)
		ex := NewExplorer()
		if _, err := ex.Run(c.g, w); err != nil {
			t.Fatal(err)
		}
		renamed := c.g
		renamed.Name = c.g.Name + "-renamed"
		warm, err := ex.Run(renamed, w)
		if err != nil {
			t.Fatal(err)
		}
		if st := ex.Cache.Stats(); st.Hits != uint64(len(warm)) {
			t.Fatalf("%s: renamed sweep hit the store %d times, want %d", c.g.Name, st.Hits, len(warm))
		}
		ref := NewExplorer()
		ref.Cache = nil
		fresh, err := ref.Run(renamed, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, fresh) {
			for i := range fresh {
				if !reflect.DeepEqual(warm[i], fresh[i]) {
					t.Fatalf("%s: served point %d differs from a fresh one:\n got %+v\nwant %+v", c.g.Name, i, warm[i], fresh[i])
				}
			}
			t.Fatalf("%s: %d served points, want %d", c.g.Name, len(warm), len(fresh))
		}
	}
}

// TestPointStoreGet pins Get's contract: a stored design comes back with
// the config it was stored under in Config and Result.Config and its
// scalars, but with no workload and no per-operator profiles, whatever
// the point that was put held; the key ignores the display name, so a
// renamed config's key finds the stored name. Each Get counts once, and
// a miss returns the zero Point.
func TestPointStoreGet(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	cfg := Table3(4800, []float64{600}).Expand()[7]
	res, err := sim.New().Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var p Point
	NewExplorer().finishPoint(&p, cfg, &res)
	p.Result = res // with its workload and op profiles
	if p.Result.Workload.Model.Name == "" || len(p.Result.PrefillOps) == 0 {
		t.Fatal("the simulated result carries no workload or no op profiles")
	}

	ps := NewPointStore(64)
	ctx := context.Background()
	renamed := cfg
	renamed.Name = "other-name"
	if got, ok := ps.Get(ctx, PointKey(renamed, w)); ok || !reflect.DeepEqual(got, Point{}) {
		t.Errorf("Get before Put: %v, %+v; want a miss and the zero Point", ok, got)
	}
	ps.Put(ctx, PointKey(cfg, w), p)
	got, ok := ps.Get(ctx, PointKey(renamed, w))
	if !ok {
		t.Fatal("Get after Put missed")
	}
	want := p
	want.Result = sim.Result{
		Config:      cfg,
		TTFTSeconds: res.TTFTSeconds, TBTSeconds: res.TBTSeconds,
		PrefillMFU: res.PrefillMFU, DecodeMFU: res.DecodeMFU,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Get = %+v\nwant %+v", got, want)
	}
	if st := ps.Stats(); st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Errorf("Stats after a miss, a Put and a hit: %+v", st)
	}
}

// TestConcurrentIdenticalSweepsMatchSerial releases 8 cold Table 3
// sweeps onto one explorer at once. The store does not deduplicate their
// misses, so each sweep evaluates what it misses; every sweep must still
// return the points of one serial sweep on an explorer without a store,
// and the store must end as one cold sweep leaves it: a design written
// by several sweeps is refreshed, never charged twice. Every probe counts
// once, as a hit or a miss.
func TestConcurrentIdenticalSweepsMatchSerial(t *testing.T) {
	const sweeps = 8
	w := model.PaperWorkload(model.Llama3_8B())
	g := Table3(4800, []float64{600})
	ref := NewExplorer()
	ref.Cache = nil
	want, err := ref.Run(g, w)
	if err != nil {
		t.Fatal(err)
	}
	once := NewExplorer()
	if _, err := once.Run(g, w); err != nil {
		t.Fatal(err)
	}
	cold := once.Cache.Stats()

	ex := NewExplorer()
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]Point, sweeps)
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = ex.Run(g, w)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("sweep %d: points differ from the serial sweep without a store", i)
		}
	}
	st := ex.Cache.Stats()
	if st.Len != cold.Len || st.Bytes != cold.Bytes {
		t.Errorf("store holds %d entries in %d bytes, want one cold sweep's %d in %d", st.Len, st.Bytes, cold.Len, cold.Bytes)
	}
	if got := st.Hits + st.Misses; got != uint64(sweeps*len(want)) {
		t.Errorf("store counted %d lookups (%d hits, %d misses), want %d", got, st.Hits, st.Misses, sweeps*len(want))
	}
}

func TestPointKeyIgnoresNameOnly(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	a, b := arch.A100(), arch.A100()
	b.Name = "same-silicon-other-name"
	if PointKey(a, w) != PointKey(b, w) {
		t.Error("renaming a config must not change its cache key")
	}
	b.L1KB++
	if PointKey(a, w) == PointKey(b, w) {
		t.Error("distinct silicon must produce distinct keys")
	}
	w2 := w
	w2.Batch++
	if PointKey(a, w) == PointKey(a, w2) {
		t.Error("distinct workloads must produce distinct keys")
	}
	// WeightBits 0 means FP16: both spellings must share a key.
	w16 := w
	w16.WeightBits = 16
	if PointKey(a, w) != PointKey(a, w16) {
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

// TestSweepPointsCarryNoOpProfiles pins that sweep points are scalar:
// points from Session.Sweep, Session.SweepGrid, EvaluateContext and Run,
// cold and served from the store, on the batch evaluator and on an
// explicit Sim.Backend, hold no per-operator profiles.
func TestSweepPointsCarryNoOpProfiles(t *testing.T) {
	w := model.PaperWorkload(model.Llama3_8B())
	g := smallGrid(4800)
	backend := NewExplorer()
	backend.Sim.Backend = ir.Analytic{Engine: backend.Sim.Engine}
	for name, ex := range map[string]*Explorer{"batch": NewExplorer(), "backend": backend} {
		check := func(how string, p *Point) {
			if p.Result.PrefillOps != nil || p.Result.DecodeOps != nil {
				t.Errorf("%s %s: %s holds %d prefill and %d decode ops",
					name, how, p.Config.Name, len(p.Result.PrefillOps), len(p.Result.DecodeOps))
			}
		}
		for _, pass := range []string{"cold", "warm"} {
			visit := func(how string) Visitor {
				return func(win Window) {
					for _, p := range win.Points {
						check(pass+" "+how, p)
					}
				}
			}
			sess := ex.NewSession(w)
			if err := sess.Sweep(context.Background(), g.Expand(), nil, visit("Sweep")); err != nil {
				t.Fatal(err)
			}
			if err := sess.SweepGrid(context.Background(), g, nil, visit("SweepGrid")); err != nil {
				t.Fatal(err)
			}
			pts, err := ex.EvaluateContext(context.Background(), g.Expand(), w)
			if err != nil {
				t.Fatal(err)
			}
			more, err := ex.Run(g, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				check(pass+" EvaluateContext", &pts[i])
				check(pass+" Run", &more[i])
			}
		}
	}
}

// TestPointStoreChargesWhatAPointOwns pins the store's accounting of
// scalar points: after a Table 5 GPT-3 sweep each entry is charged its
// key, its record and its display name, at most 280 bytes.
func TestPointStoreChargesWhatAPointOwns(t *testing.T) {
	ex := NewExplorer()
	if _, err := ex.Run(Table5(), model.PaperWorkload(model.GPT3_175B())); err != nil {
		t.Fatal(err)
	}
	st := ex.Cache.Stats()
	if st.Len != 2304 {
		t.Fatalf("store holds %d points, want 2304", st.Len)
	}
	if per := st.Bytes / int64(st.Len); per > 280 {
		t.Errorf("store charges %d bytes per point, want at most 280", per)
	}
	t.Logf("%d points, %d bytes (%d per point)", st.Len, st.Bytes, st.Bytes/int64(st.Len))
}

// TestRulesAndObjectivesByName pins the one table of rules and
// objectives that the server, core and acrdse look up: every name's
// predicate or metric against its definition, on Table 3 points at TPP
// 9600 and three device bandwidths and at TPP 1200 (so each rule admits
// some designs and refuses others), and the error for unknown names,
// which lists the valid ones.
func TestRulesAndObjectivesByName(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	var points []Point
	for _, g := range []Grid{Table3(9600, []float64{500, 600, 900}), Table3(1200, []float64{600})} {
		pts, err := NewExplorer().Run(g, w)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts...)
	}
	for _, c := range []struct {
		name string
		want func(Point) bool
	}{
		{"none", func(p Point) bool { return p.FitsReticle }},
		{"oct2022", func(p Point) bool { return p.FitsReticle && !(p.TPP >= 4800 && p.Config.DeviceBWGBs >= 600) }},
		{"oct2023", func(p Point) bool { return p.FitsReticle && p.Oct2023Class == policy.NotApplicable }},
	} {
		keep, err := Rule(c.name)
		if err != nil {
			t.Fatalf("rule %s: %v", c.name, err)
		}
		admitted := 0
		for _, p := range points {
			if got := keep(p); got != c.want(p) {
				t.Fatalf("rule %s admits %s: %v, want %v", c.name, p.Config.Name, got, !got)
			}
			if keep(p) {
				admitted++
			}
		}
		if admitted == 0 || admitted == len(points) {
			t.Errorf("rule %s admits %d of %d designs; the check needs both kinds", c.name, admitted, len(points))
		}
	}
	for _, c := range []struct {
		name string
		want func(Point) float64
	}{
		{"ttft", func(p Point) float64 { return p.Result.TTFTSeconds }},
		{"tbt", func(p Point) float64 { return p.Result.TBTSeconds }},
		{"ttftcost", func(p Point) float64 { return p.Result.TTFTSeconds * 1e3 * p.DieCostUSD }},
		{"tbtcost", func(p Point) float64 { return p.Result.TBTSeconds * 1e3 * p.DieCostUSD }},
	} {
		metric, err := Objective(c.name)
		if err != nil {
			t.Fatalf("objective %s: %v", c.name, err)
		}
		for _, p := range points {
			if got, want := metric(p), c.want(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("objective %s of %s = %v, want %v", c.name, p.Config.Name, got, want)
			}
		}
	}
	for _, name := range []string{"", "bogus", "NONE", "oct2024"} {
		if _, err := Rule(name); err == nil || err.Error() != `unknown rule "`+name+`" (none, oct2022, oct2023)` {
			t.Errorf("Rule(%q) error = %v", name, err)
		}
	}
	for _, name := range []string{"", "TTFT", "area", "vibes"} {
		if _, err := Objective(name); err == nil || err.Error() != `unknown objective "`+name+`" (ttft, tbt, ttftcost, tbtcost)` {
			t.Errorf("Objective(%q) error = %v", name, err)
		}
	}
}
