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

// Size returns the number of grid combinations before core-count
// solving, saturating at math.MaxInt instead of wrapping, so a size
// limit check always refuses a grid too large to expand.
func (g Grid) Size() int {
	return product(len(g.SystolicDims), len(g.LanesPerCore), len(g.L1KB),
		len(g.L2MB), len(g.HBMBandwidthGBs), len(g.DeviceBWGBs))
}

// Designs returns the number of configurations Expand yields: Size less
// the combinations of every (systolic dim, lanes) pair whose one-core
// device already reaches the TPP budget. It solves the core count once
// per pair and builds no configuration; like Size, it saturates at
// math.MaxInt, so check Size against a limit before paying for the pairs.
func (g Grid) Designs() int {
	pairs := 0
	for _, dim := range g.SystolicDims {
		for _, lanes := range g.LanesPerCore {
			if _, err := arch.MaxCoresForTPP(g.TPPTarget, lanes, dim, dim, g.ClockGHz); err == nil {
				pairs++
			}
		}
	}
	return product(pairs, len(g.L1KB), len(g.L2MB), len(g.HBMBandwidthGBs), len(g.DeviceBWGBs))
}

// product multiplies axis lengths, saturating at math.MaxInt instead of
// wrapping.
func product(lens ...int) int {
	n := 1
	for _, l := range lens {
		switch {
		case l == 0:
			return 0
		case n > math.MaxInt/l:
			n = math.MaxInt
		default:
			n *= l
		}
	}
	return n
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
	// Sim times the designs. With Sim.Backend nil, sweeps evaluate on
	// Sim.Engine through a batch.Evaluator; with a Backend set (tilesim,
	// test doubles, or ir.Analytic as the single-design reference) they
	// call Sim.SimulateGraphContext one design at a time.
	Sim   *sim.Simulator
	Wafer cost.Wafer
	// Parallelism bounds a sweep's window workers; 0 means GOMAXPROCS.
	Parallelism int
	// Cache memoises evaluated points by PointKey in the content-addressed
	// store (a sharded LRU over store.Key plus single-flight dedup of
	// concurrent identical evaluations) so overlapping grids (and repeated
	// service requests) skip re-simulation. The key covers the config and
	// workload only: explorers whose Sim engine or Wafer model differ from
	// the defaults must not share a cache (set it to nil, or give each
	// explorer its own). Nil disables caching.
	Cache *store.Tiered[Point]
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
		Cache: NewPointStore(DefaultCacheEntries),
	}
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
// layer share: the store's sharded memory LRU bounded to entries points
// and byte-accounted with a deep Point sizer.
func NewPointStore(entries int) *store.Tiered[Point] {
	return store.NewTiered(entries, pointSize)
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
//
// It is a Session with one sweep: the workload is lowered once and the
// configs split into fixed windows of batch.DefaultWidth designs.
// Parallelism workers each take one window at a time from the caller:
// they probe the point store, claim the misses in its single-flight layer
// in one critical section, evaluate the claimed misses (one
// batch.Evaluator pass, or one Sim.SimulateGraphContext call per design
// when Sim.Backend is set), finish, store and release them, wait for
// misses another sweep is computing, and deliver the window's points in
// input order to the context's ProgressFunc. Each window records one
// dse.window span with int attributes configs, hits (memory), misses
// (simulated here) and shared (computed by a concurrent sweep).
func (e *Explorer) EvaluateContext(ctx context.Context, configs []arch.Config, w model.Workload) ([]Point, error) {
	return e.NewSession(w).EvaluateContext(ctx, configs)
}

// Session evaluates one job's sweeps of one workload. Its first sweep
// lowers and hashes the workload, inside that sweep's dse.sweep span, and
// every sweep shares the graph and one batch.Evaluator, so the L2
// blocking searches of earlier sweeps serve later ones. A search run opens
// a session and evaluates each generation through it. A session serves
// one sweep at a time and lives for one job: kept longer, its L2 table
// would grow into a process-wide memo.
type Session struct {
	e *Explorer
	w model.Workload
	// lowered is set by the first sweep, with g, wh and the lowering
	// error err.
	lowered bool
	err     error
	g       ir.Graph
	wh      uint64 // ir.WorkloadHash of w
	ev      batch.Evaluator
}

// NewSession opens a session evaluating configurations for w on e.
func (e *Explorer) NewSession(w model.Workload) *Session {
	return &Session{e: e, w: w, ev: batch.Evaluator{Engine: e.Sim.Engine}}
}

// EvaluateContext sweeps configs on the session's workload, with
// Explorer.EvaluateContext's ordering, cancellation and partial-result
// semantics.
func (s *Session) EvaluateContext(ctx context.Context, configs []arch.Config) ([]Point, error) {
	ctx, sp := obs.Start(ctx, "dse.sweep")
	defer sp.End()
	sp.SetInt("configs", len(configs))
	if !s.lowered {
		// The operator graph depends only on the workload, so every
		// design of every sweep shares it.
		_, lower := obs.Start(ctx, "dse.lower")
		s.g, s.err = ir.Lower(s.w)
		lower.SetStr("model", s.w.Model.Name)
		lower.End()
		s.wh = ir.WorkloadHash(s.w)
		s.lowered = true
	}
	if s.err != nil {
		return nil, fmt.Errorf("dse: %w", s.err)
	}
	n := len(configs)
	sw := &sweep{
		Session:  s,
		ctx:      ctx,
		configs:  configs,
		progress: progressFrom(ctx),
		tally:    tallyFrom(ctx),
		points:   make([]Point, n),
		done:     make([]bool, n),
		errs:     make([]error, n),
	}
	workers := s.e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The caller hands out window starts one at a time: a worker that
	// finds none ready parks, which gives the scheduler the idle
	// moments it polls the network in, so streamed frames and new
	// requests are not starved behind the sweep.
	windows := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < min(workers, (n+batch.DefaultWidth-1)/batch.DefaultWidth); i++ {
		wg.Add(1)
		go func() { defer wg.Done(); sw.work(windows) }()
	}
feed:
	for lo := 0; lo < n; lo += batch.DefaultWidth {
		select {
		case windows <- lo:
		case <-ctx.Done():
			break feed
		}
	}
	close(windows)
	wg.Wait()

	allErrs := make([]error, 0, 1)
	for _, err := range sw.errs {
		if err != nil {
			allErrs = append(allErrs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		allErrs = append(allErrs, fmt.Errorf("dse: sweep aborted: %w", err))
	}
	if len(allErrs) == 0 {
		return sw.points, nil
	}
	kept := sw.points[:0]
	for i, ok := range sw.done {
		if ok {
			kept = append(kept, sw.points[i])
		}
	}
	return kept, errors.Join(allErrs...)
}

// sweep is one Session.EvaluateContext call's shared state. Each design's
// points, done and errs entries are written only by the worker holding
// its window.
type sweep struct {
	*Session
	ctx      context.Context
	configs  []arch.Config
	progress ProgressFunc
	tally    *CacheTally
	points   []Point
	done     []bool
	errs     []error
}

// window is one worker's scratch, reused across the windows it takes:
// nothing in it escapes a window.
type window struct {
	sw *sweep
	// miss holds the design indices that missed memory, keys their
	// point keys, and all the positions 0..DefaultWidth-1 into both.
	miss []int
	keys []store.Key
	all  []int
	buf  store.WindowBuf
	// cfgs and out are the batch evaluator's input and output.
	cfgs []arch.Config
	out  batch.Outcome
	// The current window's span tallies.
	hits, misses, shared int
}

// work evaluates the windows starting at each design index it receives,
// skipping them once the sweep's context has ended.
func (sw *sweep) work(windows <-chan int) {
	const width = batch.DefaultWidth
	w := &window{sw: sw, all: make([]int, width)}
	for i := range w.all {
		w.all[i] = i
	}
	for lo := range windows {
		if sw.ctx.Err() != nil {
			continue // cancelled: drain without evaluating
		}
		w.run(lo, min(lo+width, len(sw.configs)))
		// Let a readied stream writer onto a processor between windows,
		// so streamed points reach clients while the sweep goes on.
		runtime.Gosched()
	}
}

// run evaluates the designs [lo, hi) and delivers them to the sweep's
// progress callback.
func (w *window) run(lo, hi int) {
	sw := w.sw
	ctx, sp := obs.Start(sw.ctx, "dse.window")
	defer sp.End()
	w.hits, w.misses, w.shared = 0, 0, 0
	w.miss, w.keys = w.miss[:0], w.keys[:0]
	cache := sw.e.Cache
	for i := lo; i < hi; i++ {
		if cache == nil {
			w.miss = append(w.miss, i)
			continue
		}
		k := store.Key{Hi: ir.ConfigHash(sw.configs[i]), Lo: sw.wh} // == PointKey(cfg, workload)
		if p, ok := cache.Get(ctx, k); ok {
			w.serve(i, p)
			w.hits++
			continue
		}
		w.miss = append(w.miss, i)
		w.keys = append(w.keys, k)
	}
	switch {
	case len(w.miss) == 0:
	case cache == nil:
		w.evaluate(ctx, w.all[:len(w.miss)])
	default:
		// Misses complete under the single-flight layer, so concurrent
		// identical sweeps share one evaluation per design.
		cache.ComputeWindow(ctx, w.keys, &w.buf, func(lead []int) { //nolint:errcheck // a cancelled sweep reports ctx.Err() itself
			w.evaluate(ctx, lead)
		}, func(j int, p Point, shared bool) {
			w.serve(w.miss[j], p)
			if shared {
				w.shared++
			} else {
				w.hits++
			}
		})
	}
	sp.SetInt("configs", hi-lo)
	sp.SetInt("hits", w.hits)
	sp.SetInt("misses", w.misses)
	sp.SetInt("shared", w.shared)
	if sw.tally != nil && cache != nil {
		sw.tally.Hits.Add(uint64(w.hits + w.shared))
		sw.tally.Misses.Add(uint64(w.misses))
	}
	if sw.progress != nil {
		for i := lo; i < hi; i++ {
			if sw.done[i] {
				sw.progress(sw.points[i])
			}
		}
	}
}

// serve places a stored point at design i. The point may have been
// evaluated under a different grid's display name; the requested one is
// restored.
func (w *window) serve(i int, p Point) {
	cfg := w.sw.configs[i]
	p.Config = cfg
	p.Result.Config = cfg
	w.sw.points[i] = p
	w.sw.done[i] = true
}

// evaluate simulates the missed designs at positions lead of w.miss,
// then finishes and stores each one that succeeds.
func (w *window) evaluate(ctx context.Context, lead []int) {
	sw := w.sw
	simr := sw.e.Sim
	if simr.Backend != nil || simr.Engine == nil {
		for _, j := range lead {
			if ctx.Err() != nil {
				return
			}
			i := w.miss[j]
			r, err := simr.SimulateGraphContext(ctx, sw.configs[i], sw.g)
			w.misses++
			if err != nil {
				sw.errs[i] = fmt.Errorf("dse: %s: %w", sw.configs[i].Name, err)
				continue
			}
			w.finish(ctx, j, &r)
		}
		return
	}
	w.cfgs = w.cfgs[:0]
	for _, j := range lead {
		w.cfgs = append(w.cfgs, sw.configs[w.miss[j]])
	}
	out := &w.out
	if out.Results == nil { // first evaluation of this worker
		out.Results, out.Done = make([]sim.Result, batch.DefaultWidth), make([]bool, batch.DefaultWidth)
	}
	out.Results, out.Done = out.Results[:len(lead)], out.Done[:len(lead)]
	// The per-op Times escape into the points (and the store), so their
	// backing array is the window's own. The only sweep-level error is
	// cancellation, which EvaluateContext reports from ctx.
	sw.ev.SweepInto(ctx, w.cfgs, sw.g, out, make([]perf.Time, len(lead)*len(sw.g.Nodes))) //nolint:errcheck
	for k, j := range lead {
		i := w.miss[j]
		if out.Errs != nil && out.Errs[k] != nil {
			sw.errs[i] = fmt.Errorf("dse: %s: %w", sw.configs[i].Name, out.Errs[k])
			w.misses++
		} else if out.Done[k] {
			w.finish(ctx, j, &out.Results[k])
			w.misses++
		}
	}
}

// finish completes the missed design at position j of w.miss from its
// simulated profile and stores it.
func (w *window) finish(ctx context.Context, j int, r *sim.Result) {
	sw := w.sw
	i := w.miss[j]
	sw.e.finishPoint(&sw.points[i], sw.configs[i], r)
	if sw.e.Cache != nil {
		sw.e.Cache.Put(ctx, w.keys[j], sw.points[i])
	}
	sw.done[i] = true
}

// finishPoint derives the area, TPP, compliance and cost fields of one
// evaluated design, writing the point in place: a sweep finalises
// hundreds of designs, and assembling each ~400-byte Point directly in its
// slot keeps the loop free of by-value staging copies. Wafer-model
// failures (degenerate areas) leave both costs zero, as the paper's
// tables do.
func (e *Explorer) finishPoint(dst *Point, cfg arch.Config, r *sim.Result) {
	a := area.Estimate(cfg)
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
	dst.DieCostUSD, dst.GoodDieCostUSD = 0, 0
	if rep, err := e.Wafer.Analyze(a); err == nil {
		dst.DieCostUSD, dst.GoodDieCostUSD = rep.DieCostUSD, rep.GoodDieUSD
	}
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
