// Package dse runs the paper's design-space explorations: it expands the
// Table 3 and Table 5 parameter grids into concrete device configurations
// (solving core count against a TPP budget, Eq. 1), evaluates each design's
// LLM-inference latency, die area, performance density and manufacturing
// cost, and provides the filtering/optimisation helpers the paper's §4 uses
// (reticle filtering, PD compliance, fastest-design search, Pareto fronts).
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/batch"
	"repro/internal/cost"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/store"
)

// Grid is a sweep specification: the cartesian product of the listed
// values, with core count derived per combination to stay under TPPTarget.
type Grid struct {
	// Name labels the sweep in reports.
	Name string
	// TPPTarget is the TPP budget each design approaches from below.
	TPPTarget float64
	// SystolicDims lists square systolic-array dimensions.
	SystolicDims []int
	// LanesPerCore lists lane counts.
	LanesPerCore []int
	// L1KB, L2MB list cache capacities.
	L1KB []int
	L2MB []int
	// HBMBandwidthGBs lists memory bandwidths.
	HBMBandwidthGBs []float64
	// DeviceBWGBs lists interconnect bandwidths.
	DeviceBWGBs []float64
	// HBMCapacityGB is fixed across the sweep (80 GB in the paper).
	HBMCapacityGB int
	// ClockGHz is fixed across the sweep (the A100's 1.41 GHz).
	ClockGHz float64
}

// Table3 returns the paper's Table 3 grid for the given TPP target and
// device-bandwidth set: 2 systolic dims × 4 lane counts × 4 L1 × 4 L2 ×
// 4 memory bandwidths × len(deviceBW) designs (512 at one device BW,
// 1536 at the October 2023 rule's three).
func Table3(tppTarget float64, deviceBW []float64) Grid {
	return Grid{
		Name:            fmt.Sprintf("table3-tpp%d-bw%v", int(tppTarget), deviceBW),
		TPPTarget:       tppTarget,
		SystolicDims:    []int{16, 32},
		LanesPerCore:    []int{1, 2, 4, 8},
		L1KB:            []int{192, 256, 512, 1024},
		L2MB:            []int{32, 48, 64, 80},
		HBMBandwidthGBs: []float64{2000, 2400, 2800, 3200},
		DeviceBWGBs:     deviceBW,
		HBMCapacityGB:   80,
		ClockGHz:        arch.A100ClockGHz,
	}
}

// Table5 returns the paper's Table 5 "restricted" grid (§5.3): parameters
// decreased relative to the A100, 2304 designs at TPP 4800.
func Table5() Grid {
	return Grid{
		Name:            "table5-restricted",
		TPPTarget:       4800,
		SystolicDims:    []int{4, 8, 16},
		LanesPerCore:    []int{1, 2, 4, 8},
		L1KB:            []int{32, 64, 128, 192},
		L2MB:            []int{8, 16, 32, 40},
		HBMBandwidthGBs: []float64{800, 1200, 1600, 2000},
		DeviceBWGBs:     []float64{400, 500, 600},
		HBMCapacityGB:   80,
		ClockGHz:        arch.A100ClockGHz,
	}
}

// Size returns the number of grid combinations before core-count solving.
func (g Grid) Size() int {
	return len(g.SystolicDims) * len(g.LanesPerCore) * len(g.L1KB) *
		len(g.L2MB) * len(g.HBMBandwidthGBs) * len(g.DeviceBWGBs)
}

// Expand materialises the grid into configurations. Combinations whose
// smallest possible device (one core) already exceeds the TPP budget are
// skipped. Names follow "<grid>/<dim>x<dim>-l<lanes>-L1:<kb>-L2:<mb>-m<gbs>-d<gbs>"
// and are built incrementally per loop level — expansion sits on the cold
// path of every sweep, and a per-design Sprintf dominated it.
func (g Grid) Expand() []arch.Config {
	configs := make([]arch.Config, 0, g.Size())
	buf := make([]byte, 0, 96)
	// The bandwidth axes repeat in every name; format each value once
	// instead of once per design.
	hbmSeg := make([]string, len(g.HBMBandwidthGBs))
	for i, hbm := range g.HBMBandwidthGBs {
		hbmSeg[i] = "-m" + strconv.FormatFloat(hbm, 'f', 0, 64)
	}
	devSeg := make([]string, len(g.DeviceBWGBs))
	for i, dev := range g.DeviceBWGBs {
		devSeg[i] = "-d" + strconv.FormatFloat(dev, 'f', 0, 64)
	}
	for _, dim := range g.SystolicDims {
		for _, lanes := range g.LanesPerCore {
			cores, err := arch.MaxCoresForTPP(g.TPPTarget, lanes, dim, dim, g.ClockGHz)
			if err != nil {
				continue
			}
			buf = append(buf[:0], g.Name...)
			buf = append(buf, '/')
			buf = strconv.AppendInt(buf, int64(dim), 10)
			buf = append(buf, 'x')
			buf = strconv.AppendInt(buf, int64(dim), 10)
			buf = append(buf, "-l"...)
			buf = strconv.AppendInt(buf, int64(lanes), 10)
			lanesLen := len(buf)
			for _, l1 := range g.L1KB {
				buf = append(buf[:lanesLen], "-L1:"...)
				buf = strconv.AppendInt(buf, int64(l1), 10)
				l1Len := len(buf)
				for _, l2 := range g.L2MB {
					buf = append(buf[:l1Len], "-L2:"...)
					buf = strconv.AppendInt(buf, int64(l2), 10)
					l2Len := len(buf)
					for hi, hbm := range g.HBMBandwidthGBs {
						buf = append(buf[:l2Len], hbmSeg[hi]...)
						hbmLen := len(buf)
						for di, dev := range g.DeviceBWGBs {
							buf = append(buf[:hbmLen], devSeg[di]...)
							configs = append(configs, arch.Config{
								Name:            string(buf),
								CoreCount:       cores,
								LanesPerCore:    lanes,
								SystolicDimX:    dim,
								SystolicDimY:    dim,
								VectorWidth:     32,
								L1KB:            l1,
								L2MB:            l2,
								HBMCapacityGB:   g.HBMCapacityGB,
								HBMBandwidthGBs: hbm,
								DeviceBWGBs:     dev,
								ClockGHz:        g.ClockGHz,
								Process:         arch.ProcessN7,
							})
						}
					}
				}
			}
		}
	}
	return configs
}

// Point is one evaluated design.
type Point struct {
	Config arch.Config
	// Result holds the simulated inference profile.
	Result sim.Result

	TPP         float64
	AreaMM2     float64
	PD          float64
	FitsReticle bool
	// Oct2023Class is the design's data-center classification under the
	// October 2023 rule.
	Oct2023Class policy.Classification
	// DieCostUSD and GoodDieCostUSD come from the 7 nm wafer model.
	DieCostUSD     float64
	GoodDieCostUSD float64
}

// TTFT and TBT return the per-layer latencies in seconds.
func (p Point) TTFT() float64 { return p.Result.TTFTSeconds }
func (p Point) TBT() float64  { return p.Result.TBTSeconds }

// Compliant reports the strict compliance criterion the paper uses for the
// October 2023 analysis (§4.3): unregulated (NAC-eligible devices may not
// be granted licenses) and manufacturable as a single die.
func (p Point) Compliant() bool {
	return p.Oct2023Class == policy.NotApplicable && p.FitsReticle
}

// TTFTCostProduct and TBTCostProduct are the Fig. 8 metrics: latency (ms)
// times die cost ($).
func (p Point) TTFTCostProduct() float64 { return p.TTFT() * 1e3 * p.DieCostUSD }
func (p Point) TBTCostProduct() float64  { return p.TBT() * 1e3 * p.DieCostUSD }

// Explorer evaluates grids against a workload.
type Explorer struct {
	Sim   *sim.Simulator
	Wafer cost.Wafer
	// Parallelism bounds worker goroutines; 0 means GOMAXPROCS.
	Parallelism int
	// Cache memoises evaluated points by PointKey in the in-memory
	// content-addressed store (an LRU plus single-flight dedup of
	// concurrent identical evaluations) so overlapping grids (and repeated
	// service requests) skip re-simulation. The key covers the config and
	// workload only: explorers whose Sim engine or Wafer model differ from
	// the defaults must not share a cache (set it to nil, or give each
	// explorer its own). Nil disables caching.
	Cache *store.Tiered[Point]
	// Batch, when non-nil, routes cache-miss evaluation through the
	// struct-of-arrays evaluator in internal/batch instead of the
	// per-design worker pool. LRU hits are still served point-wise, and
	// results are bit-identical to the scalar path (see package batch).
	// Ignored when a non-analytic Sim.Backend is set — only the analytic
	// engine has a batch lowering.
	Batch *batch.Evaluator
}

// DefaultCacheEntries bounds the explorer's result cache: larger than the
// biggest paper sweep (Table 5's 2304 designs) so a full grid fits, small
// enough (a few MB of Points) to be negligible next to the sweeps.
const DefaultCacheEntries = 8192

// NewExplorer returns an Explorer with the calibrated simulator, the 7 nm
// wafer model, and a result cache of DefaultCacheEntries points.
func NewExplorer() *Explorer {
	return &Explorer{
		Sim:   sim.New(),
		Wafer: cost.N7Wafer,
		Cache: NewPointStore(DefaultCacheEntries, 0),
	}
}

// NewBatchExplorer returns NewExplorer reconfigured to evaluate cache
// misses through the struct-of-arrays batch evaluator.
func NewBatchExplorer() *Explorer {
	return NewExplorer().WithBatch()
}

// WithBatch returns a shallow copy of e whose cache misses evaluate
// through a fresh batch evaluator bound to e's analytic engine. The copy
// shares e's simulator, wafer model and result cache — safe because batch
// and scalar evaluation are bit-identical. With no simulator or engine to
// bind, the copy is returned unchanged (the scalar path reports the
// configuration error).
func (e *Explorer) WithBatch() *Explorer {
	c := *e
	if e.Sim != nil && e.Sim.Engine != nil {
		c.Batch = &batch.Evaluator{Engine: e.Sim.Engine}
	}
	return &c
}

// PointKey returns the content address of one evaluation: the IR content
// hashes of the configuration (display name excluded) and the workload.
// It is total — no lowering or validation — so arbitrary inputs are
// safe, and it is checked by acrlint's memokey analyzer: every tracked
// field of both parameters must fold into the key.
func PointKey(cfg arch.Config, w model.Workload) store.Key {
	return store.Key{Hi: ir.ConfigHash(cfg), Lo: ir.WorkloadHash(w)}
}

// NewPointStore returns the result store the explorer and the serving
// layer share: a sharded memory LRU (non-positive shards =
// lru.DefaultShards) sized in entries and byte-accounted with a deep
// Point sizer.
func NewPointStore(entries, shards int) *store.Tiered[Point] {
	return store.NewTiered(store.NewMemorySized(entries, shards, pointSize))
}

var (
	pointStaticSize = int(reflect.TypeOf(Point{}).Size())
	timeStaticSize  = int(reflect.TypeOf(perf.Time{}).Size())
)

// pointSize deep-estimates one point's resident bytes for the memory
// tier's accounting: the struct itself plus the op slices and name
// strings it points at.
func pointSize(p Point) int {
	n := pointStaticSize +
		len(p.Config.Name) + len(p.Result.Config.Name) + len(p.Result.Workload.Model.Name)
	for i := range p.Result.PrefillOps {
		n += timeStaticSize + len(p.Result.PrefillOps[i].Name)
	}
	for i := range p.Result.DecodeOps {
		n += timeStaticSize + len(p.Result.DecodeOps[i].Name)
	}
	return n
}

// CacheKey returns the canonical result-cache key for one evaluation in
// its legacy string form — PointKey's hex rendering, which is also the
// memory tier's LRU key. The hashes are name-invariant and sensitive to
// every simulation-relevant field, and CacheKey is total — it never
// lowers or validates the workload, so arbitrary (fuzzer-supplied)
// inputs are safe.
func CacheKey(cfg arch.Config, w model.Workload) string {
	return PointKey(cfg, w).String()
}

// Evaluate simulates every configuration for the workload and returns the
// evaluated points in the same order. It is EvaluateContext without
// cancellation, kept for existing callers.
func (e *Explorer) Evaluate(configs []arch.Config, w model.Workload) ([]Point, error) {
	return e.EvaluateContext(context.Background(), configs, w)
}

// EvaluateContext simulates every configuration for the workload. On full
// success the points come back in input order with a nil error. When the
// context is cancelled, in-flight work stops promptly, remaining configs
// are skipped, and the points evaluated so far are returned (compacted,
// input order preserved) alongside an error wrapping ctx.Err(). Configs
// that individually fail are likewise skipped, their errors joined via
// errors.Join, and every successful point still returned — one bad design
// no longer discards an entire sweep.
func (e *Explorer) EvaluateContext(ctx context.Context, configs []arch.Config, w model.Workload) ([]Point, error) {
	ctx, sweep := obs.Start(ctx, "dse.sweep")
	defer sweep.End()
	sweep.SetInt("configs", len(configs))
	// Lower once: the operator graph depends only on the workload, so every
	// grid point shares it (the engine's component memo tables then share
	// the per-node terms each changed axis doesn't touch).
	_, lower := obs.Start(ctx, "dse.lower")
	g, err := ir.Lower(w)
	lower.SetStr("model", w.Model.Name)
	lower.End()
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	workloadHash := ir.WorkloadHash(w)
	if e.Batch != nil && e.Sim != nil && e.Sim.Backend == nil && e.Sim.Engine != nil {
		return e.evaluateBatch(ctx, configs, g, workloadHash)
	}
	points := make([]Point, len(configs))
	done := make([]bool, len(configs))
	errs := make([]error, len(configs))
	// One lookup per sweep: the no-progress path never touches the
	// context again, so plain sweeps stay exactly as cheap as before.
	progress := progressFrom(ctx)
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain without evaluating
				}
				p, err := e.evaluateOne(ctx, configs[idx], g, workloadHash)
				if err != nil {
					errs[idx] = fmt.Errorf("dse: %s: %w", configs[idx].Name, err)
					continue
				}
				points[idx] = p
				done[idx] = true
				if progress != nil {
					progress(p)
				}
			}
		}()
	}
feed:
	for i := range configs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	allErrs := make([]error, 0, 1)
	for _, err := range errs {
		if err != nil {
			allErrs = append(allErrs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		allErrs = append(allErrs, fmt.Errorf("dse: sweep aborted: %w", err))
	}
	if len(allErrs) == 0 {
		return points, nil
	}
	kept := points[:0]
	for i, ok := range done {
		if ok {
			kept = append(kept, points[i])
		}
	}
	return kept, errors.Join(allErrs...)
}

func (e *Explorer) evaluateOne(ctx context.Context, cfg arch.Config, g ir.Graph, workloadHash uint64) (Point, error) {
	ctx, sp := obs.Start(ctx, "dse.evaluate")
	defer sp.End()
	sp.SetStr("config", cfg.Name)
	if e.Cache == nil {
		r, err := e.Sim.SimulateGraphContext(ctx, cfg, g)
		if err != nil {
			return Point{}, err
		}
		return e.finishPoint(cfg, r), nil
	}
	key := store.Key{Hi: ir.ConfigHash(cfg), Lo: workloadHash} // == PointKey(cfg, g.Workload)
	if p, out, ok := e.Cache.Lookup(ctx, key); ok {
		// The cached point may have been evaluated under a different
		// grid's display name; restore the requested one.
		p.Config = cfg
		p.Result.Config = cfg
		sp.SetStr("cache", out.String())
		return p, nil
	}
	// Miss: compute under the store's single-flight layer, so concurrent
	// identical sweeps share one evaluation. The span's cache attribute
	// records what actually happened — "miss" (simulated here), "hit"
	// (a racing caller filled memory first), or "flight" (shared a racing
	// caller's computation) — which is what the single-flight tests count.
	p, out, err := e.Cache.Compute(ctx, key, func(ctx context.Context) (Point, error) {
		r, err := e.Sim.SimulateGraphContext(ctx, cfg, g)
		if err != nil {
			return Point{}, err
		}
		return e.finishPoint(cfg, r), nil
	})
	sp.SetStr("cache", out.String())
	if err != nil {
		return Point{}, err
	}
	p.Config = cfg
	p.Result.Config = cfg
	return p, nil
}

// finishPoint derives the area, TPP, compliance and cost fields of one
// evaluated design — the finalisation shared by the scalar and batch
// evaluation paths.
func (e *Explorer) finishPoint(cfg arch.Config, r sim.Result) Point {
	var p Point
	e.finishPointInto(&p, cfg, &r)
	return p
}

// finishPointInto is finishPoint writing in place: the batch path finalises
// hundreds of designs per sweep, and assembling each ~400-byte Point
// directly in its slot keeps the loop free of by-value staging copies.
func (e *Explorer) finishPointInto(dst *Point, cfg arch.Config, r *sim.Result) {
	a := area.Estimate(cfg)
	die, good := e.dieCost(a)
	e.assemblePoint(dst, cfg, r, a, die, good)
}

// dieCost runs the wafer model for one die area; analysis failures
// (degenerate areas) leave both costs zero, as the paper's tables do.
func (e *Explorer) dieCost(a float64) (die, good float64) {
	if rep, err := e.Wafer.Analyze(a); err == nil {
		return rep.DieCostUSD, rep.GoodDieUSD
	}
	return 0, 0
}

// assemblePoint fills dst from a design's simulated profile and its
// already-computed area and wafer costs.
func (e *Explorer) assemblePoint(dst *Point, cfg arch.Config, r *sim.Result, a, die, good float64) {
	tpp := cfg.TPP()
	dst.Config = cfg
	dst.Result = *r
	dst.TPP = tpp
	dst.AreaMM2 = a
	dst.PD = area.PerformanceDensity(tpp, a, cfg.Process)
	dst.FitsReticle = area.FitsReticle(a)
	dst.Oct2023Class = policy.Oct2023(policy.Metrics{
		TPP: tpp, DeviceBWGBs: cfg.DeviceBWGBs, DieAreaMM2: a,
		Segment: policy.DataCenter,
	})
	dst.DieCostUSD = die
	dst.GoodDieCostUSD = good
}

// evaluateBatch is EvaluateContext's batch back end: LRU hits are served
// point-wise exactly as in the scalar path, and the misses go through the
// struct-of-arrays evaluator in one sweep. Per-design failures and
// cancellation compact and join into the same error shapes the scalar
// path produces.
func (e *Explorer) evaluateBatch(ctx context.Context, configs []arch.Config, g ir.Graph, workloadHash uint64) ([]Point, error) {
	ctx, sp := obs.Start(ctx, "dse.batch")
	defer sp.End()
	points := make([]Point, len(configs))
	done := make([]bool, len(configs))
	errs := make([]error, len(configs))
	progress := progressFrom(ctx)

	miss := configs
	missIdx := []int(nil)
	var keys []store.Key
	if e.Cache != nil {
		keys = make([]store.Key, len(configs))
		miss = make([]arch.Config, 0, len(configs))
		missIdx = make([]int, 0, len(configs))
		for i, cfg := range configs {
			keys[i] = store.Key{Hi: ir.ConfigHash(cfg), Lo: workloadHash}
			if p, ok := e.Cache.Get(ctx, keys[i]); ok {
				// The cached point may have been evaluated under a different
				// grid's display name; restore the requested one.
				p.Config = cfg
				p.Result.Config = cfg
				points[i] = p
				done[i] = true
				if progress != nil {
					progress(p)
				}
				continue
			}
			miss = append(miss, cfg)
			missIdx = append(missIdx, i)
		}
	}
	sp.SetInt("configs", len(configs))
	sp.SetInt("misses", len(miss))

	var abortErr error
	if len(miss) > 0 {
		ev := e.Batch
		if ev.Engine != e.Sim.Engine {
			// Misconfigured pairing (e.g. the engine was swapped after
			// WithBatch): evaluate with the simulator's engine so the batch
			// path can never diverge from what the scalar path would report.
			ev = &batch.Evaluator{Engine: e.Sim.Engine, Width: ev.Width}
		}
		// finishMiss finalises the k-th missed design from the (possibly
		// still in-progress) outcome. It is idempotent — the progress path
		// finishes each design the moment its chunk lands, and the
		// post-sweep loop below then only records errors and designs whose
		// chunk never ran.
		finishMiss := func(o *batch.Outcome, k int) {
			i := k
			if missIdx != nil {
				i = missIdx[k]
			}
			if o.Errs != nil && o.Errs[k] != nil {
				errs[i] = fmt.Errorf("dse: %s: %w", configs[i].Name, o.Errs[k])
				return
			}
			if !o.Done[k] || done[i] {
				return // cancelled before this design's chunk, or already finished
			}
			e.finishPointInto(&points[i], configs[i], &o.Results[k])
			if e.Cache != nil {
				e.Cache.Put(ctx, keys[i], points[i])
			}
			done[i] = true
			if progress != nil {
				progress(points[i])
			}
		}
		var out batch.Outcome
		if progress != nil {
			// Streaming sweep: finish (and deliver) each chunk's designs as
			// the batch evaluator completes it instead of waiting for the
			// whole struct-of-arrays pass.
			out, abortErr = ev.SweepFunc(ctx, miss, g, func(o *batch.Outcome, lo, hi int) {
				for k := lo; k < hi; k++ {
					finishMiss(o, k)
				}
			})
		} else {
			out, abortErr = ev.Sweep(ctx, miss, g)
		}
		for k := range miss {
			finishMiss(&out, k)
		}
	}

	allErrs := make([]error, 0, 1)
	for _, err := range errs {
		if err != nil {
			allErrs = append(allErrs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		allErrs = append(allErrs, fmt.Errorf("dse: sweep aborted: %w", err))
	} else if abortErr != nil {
		allErrs = append(allErrs, fmt.Errorf("dse: %w", abortErr))
	}
	if len(allErrs) == 0 {
		return points, nil
	}
	kept := points[:0]
	for i, ok := range done {
		if ok {
			kept = append(kept, points[i])
		}
	}
	return kept, errors.Join(allErrs...)
}

// Run expands and evaluates a grid in one call.
func (e *Explorer) Run(g Grid, w model.Workload) ([]Point, error) {
	return e.Evaluate(g.Expand(), w)
}

// RunContext expands and evaluates a grid under a context; see
// EvaluateContext for cancellation and partial-result semantics.
func (e *Explorer) RunContext(ctx context.Context, g Grid, w model.Workload) ([]Point, error) {
	return e.EvaluateContext(ctx, g.Expand(), w)
}

// Filter returns the points satisfying keep.
func Filter(points []Point, keep func(Point) bool) []Point {
	out := make([]Point, 0, len(points))
	for _, p := range points {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}

// Best returns the point minimising metric, or an error on an empty set.
func Best(points []Point, metric func(Point) float64) (Point, error) {
	if len(points) == 0 {
		return Point{}, fmt.Errorf("dse: no points to optimise over")
	}
	best := points[0]
	bestV := metric(best)
	for _, p := range points[1:] {
		if v := metric(p); v < bestV {
			best, bestV = p, v
		}
	}
	return best, nil
}

// ParetoFront returns the points not dominated on (x, y), both minimised,
// sorted by x. A point dominates another when it is ≤ on both axes and <
// on at least one.
func ParetoFront(points []Point, x, y func(Point) float64) []Point {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		xi, xj := x(sorted[i]), x(sorted[j])
		//lint:ignore floateq sort comparator: a tolerance here would break strict weak ordering
		if xi != xj {
			return xi < xj
		}
		return y(sorted[i]) < y(sorted[j])
	})
	front := sorted[:0:0]
	bestY := math.Inf(1)
	for _, p := range sorted {
		if v := y(p); v < bestY {
			front = append(front, p)
			bestY = v
		}
	}
	return front
}

// BestWithTieBreak returns the point minimising primary; among points
// within tol (relative) of the primary optimum, the one minimising
// secondary wins. Used to pick "fastest design, smallest die among equals".
func BestWithTieBreak(points []Point, primary, secondary func(Point) float64, tol float64) (Point, error) {
	best, err := Best(points, primary)
	if err != nil {
		return Point{}, err
	}
	limit := primary(best) * (1 + tol)
	near := Filter(points, func(p Point) bool { return primary(p) <= limit })
	return Best(near, secondary)
}

// Metric accessors for Best/ParetoFront.
var (
	MetricTTFT     = func(p Point) float64 { return p.TTFT() }
	MetricTBT      = func(p Point) float64 { return p.TBT() }
	MetricArea     = func(p Point) float64 { return p.AreaMM2 }
	MetricTTFTCost = func(p Point) float64 { return p.TTFTCostProduct() }
	MetricTBTCost  = func(p Point) float64 { return p.TBTCostProduct() }
)
