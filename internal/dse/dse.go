// Package dse runs the paper's design-space explorations: it expands the
// Table 3 and Table 5 parameter grids into concrete device configurations
// (solving core count against a TPP budget, Eq. 1), evaluates each design's
// LLM-inference latency, die area, performance density and manufacturing
// cost, and provides the filtering/optimisation helpers the paper's §4 uses
// (reticle filtering, PD compliance, fastest-design search, Pareto fronts).
package dse

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/batch"
	"repro/internal/cost"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
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

// Designs returns the number of designs a sweep of g delivers, the
// configurations Expand yields: Size less the combinations of every
// (systolic dim, lanes) pair whose one-core device already reaches the
// TPP budget. A grid with a pair whose core count an int cannot hold is
// one a sweep refuses: Designs returns 0 and the error the sweep refuses
// it with, which wraps arch.ErrOutOfRange. It solves the core count once
// per pair and allocates only that error; like Size, it saturates at
// math.MaxInt, so check Size against a limit before paying for the pairs.
func (g Grid) Designs() (int, error) {
	pairs := 0
	if err := g.eachPair(func(gridPair) { pairs++ }); err != nil {
		return 0, err
	}
	return product(pairs, len(g.L1KB), len(g.L2MB), len(g.HBMBandwidthGBs), len(g.DeviceBWGBs)), nil
}

// eachPair calls f with every (systolic dim, lanes) pair of g whose
// one-core device stays under the TPP budget, and its core count. It
// stops at the first pair whose core count arch.MaxCoresForTPP cannot
// hold in an int, and returns an error naming it that wraps
// arch.ErrOutOfRange.
func (g Grid) eachPair(f func(gridPair)) error {
	for _, dim := range g.SystolicDims {
		for _, lanes := range g.LanesPerCore {
			cores, err := arch.MaxCoresForTPP(g.TPPTarget, lanes, dim, dim, g.ClockGHz)
			switch {
			case err == nil:
				f(gridPair{dim, lanes, cores})
			case errors.Is(err, arch.ErrOutOfRange):
				return fmt.Errorf("dse: %dx%d systolic array with %d lanes per core at TPP budget %g: %w",
					dim, dim, lanes, g.TPPTarget, err)
			}
		}
	}
	return nil
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
// skipped; a grid a sweep refuses (see Designs) yields none. Names follow
// "<grid>/<dim>x<dim>-l<lanes>-L1:<kb>-L2:<mb>-m<gbs>-d<gbs>".
// It is a grid cursor run over the whole grid, the walk a grid sweep
// makes a window at a time, so names are built in one place.
func (g Grid) Expand() []arch.Config {
	gw, err := g.walk()
	if err != nil {
		return nil
	}
	configs := make([]arch.Config, gw.n)
	if gw.n == 0 {
		return configs
	}
	var c gridCursor
	c.seek(&gw, 0)
	for i := range configs {
		c.fill(&gw, &configs[i], string(c.name))
		c.next(&gw)
	}
	return configs
}

// gridWalk is a grid prepared for cursors: the usable (dim, lanes) pairs
// with their solved core counts, and the bandwidth name segments, which
// repeat in every name, formatted once.
type gridWalk struct {
	g     Grid
	pairs []gridPair
	// seg holds the "-m<gbs>" segments, then the "-d<gbs>" ones; segment
	// i is seg[segOff[i]:segOff[i+1]].
	seg    []byte
	segOff []int
	// n is the number of designs, Designs().
	n int
}

// gridPair is one usable (systolic dim, lanes) pair and its core count.
type gridPair struct{ dim, lanes, cores int }

// walk prepares g for cursors. It skips every (dim, lanes) pair whose
// one-core device already reaches the TPP budget, and returns the error
// of a grid a sweep refuses (see eachPair).
func (g Grid) walk() (gridWalk, error) {
	gw := gridWalk{g: g, pairs: make([]gridPair, 0, len(g.SystolicDims)*len(g.LanesPerCore))}
	if err := g.eachPair(func(p gridPair) { gw.pairs = append(gw.pairs, p) }); err != nil {
		return gridWalk{}, err
	}
	gw.n = product(len(gw.pairs), len(g.L1KB), len(g.L2MB), len(g.HBMBandwidthGBs), len(g.DeviceBWGBs))
	segs := len(g.HBMBandwidthGBs) + len(g.DeviceBWGBs)
	gw.seg, gw.segOff = make([]byte, 0, 8*segs), make([]int, 1, 1+segs)
	for _, hbm := range g.HBMBandwidthGBs {
		gw.seg = strconv.AppendFloat(append(gw.seg, "-m"...), hbm, 'f', 0, 64)
		gw.segOff = append(gw.segOff, len(gw.seg))
	}
	for _, dev := range g.DeviceBWGBs {
		gw.seg = strconv.AppendFloat(append(gw.seg, "-d"...), dev, 'f', 0, 64)
		gw.segOff = append(gw.segOff, len(gw.seg))
	}
	return gw, nil
}

// segment returns bandwidth name segment i.
func (gw *gridWalk) segment(i int) []byte {
	return gw.seg[gw.segOff[i]:gw.segOff[i+1]]
}

// The levels of a grid cursor's odometer, outermost first: the order
// Expand nests its axes in.
const (
	levelPair = iota
	levelL1
	levelL2
	levelHBM
	levelDev
)

// gridCursor walks a grid's designs in Expand order. It is an odometer
// over the pair, L1, L2, HBM and device-bandwidth indices, and it keeps
// the current design's name, rewriting only the segments that changed.
// Its methods take the walk it moves over.
type gridCursor struct {
	pair, l1, l2, hbm, d int
	name                 []byte
	// The ends of the name's pair, L1, L2 and HBM segments.
	pairEnd, l1End, l2End, hbmEnd int
}

// seek points c at design i of gw, 0 ≤ i < gw.n, with one mixed-radix
// decode, and builds its whole name.
func (c *gridCursor) seek(gw *gridWalk, i int) {
	g := &gw.g
	c.d, i = i%len(g.DeviceBWGBs), i/len(g.DeviceBWGBs)
	c.hbm, i = i%len(g.HBMBandwidthGBs), i/len(g.HBMBandwidthGBs)
	c.l2, i = i%len(g.L2MB), i/len(g.L2MB)
	c.l1, c.pair = i%len(g.L1KB), i/len(g.L1KB)
	if c.name == nil {
		c.name = make([]byte, 0, 96)
	}
	c.write(gw, levelPair)
}

// next advances c to the following design of gw, rewriting the name from
// the outermost level that moved. Past the last design c holds no
// design.
func (c *gridCursor) next(gw *gridWalk) {
	g := &gw.g
	level := levelDev
	if c.d++; c.d == len(g.DeviceBWGBs) {
		c.d, level = 0, levelHBM
		if c.hbm++; c.hbm == len(g.HBMBandwidthGBs) {
			c.hbm, level = 0, levelL2
			if c.l2++; c.l2 == len(g.L2MB) {
				c.l2, level = 0, levelL1
				if c.l1++; c.l1 == len(g.L1KB) {
					c.l1, level = 0, levelPair
					if c.pair++; c.pair == len(gw.pairs) {
						return
					}
				}
			}
		}
	}
	c.write(gw, level)
}

// write rebuilds the name from level inwards.
func (c *gridCursor) write(gw *gridWalk, level int) {
	b := c.name
	switch level {
	case levelPair:
		p := gw.pairs[c.pair]
		b = append(append(b[:0], gw.g.Name...), '/')
		b = strconv.AppendInt(b, int64(p.dim), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(p.dim), 10)
		b = append(b, "-l"...)
		b = strconv.AppendInt(b, int64(p.lanes), 10)
		c.pairEnd = len(b)
		fallthrough
	case levelL1:
		b = strconv.AppendInt(append(b[:c.pairEnd], "-L1:"...), int64(gw.g.L1KB[c.l1]), 10)
		c.l1End = len(b)
		fallthrough
	case levelL2:
		b = strconv.AppendInt(append(b[:c.l1End], "-L2:"...), int64(gw.g.L2MB[c.l2]), 10)
		c.l2End = len(b)
		fallthrough
	case levelHBM:
		b = append(b[:c.l2End], gw.segment(c.hbm)...)
		c.hbmEnd = len(b)
		fallthrough
	case levelDev:
		b = append(b[:c.hbmEnd], gw.segment(len(gw.g.HBMBandwidthGBs)+c.d)...)
	}
	c.name = b
}

// fill writes c's design of gw, named name, into *dst field by field, so
// neither Expand nor a grid window copies a whole Config per design.
func (c *gridCursor) fill(gw *gridWalk, dst *arch.Config, name string) {
	g, p := &gw.g, &gw.pairs[c.pair]
	dst.Name = name
	dst.CoreCount = p.cores
	dst.LanesPerCore = p.lanes
	dst.SystolicDimX = p.dim
	dst.SystolicDimY = p.dim
	dst.VectorWidth = 32
	dst.L1KB = g.L1KB[c.l1]
	dst.L2MB = g.L2MB[c.l2]
	dst.HBMCapacityGB = g.HBMCapacityGB
	dst.HBMBandwidthGBs = g.HBMBandwidthGBs[c.hbm]
	dst.DeviceBWGBs = g.DeviceBWGBs[c.d]
	dst.ClockGHz = g.ClockGHz
	dst.Process = arch.ProcessN7
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
	// Cache memoises evaluated designs by PointKey (see PointStore) so
	// overlapping grids (and repeated service requests) skip
	// re-simulation. Concurrent sweeps that miss the same design each
	// evaluate it, bit-identically, and the later Put refreshes the entry.
	// The key covers the config and workload only: explorers whose Sim
	// engine or Wafer model differ from the defaults must not share a
	// cache (set it to nil, or give each explorer its own). Nil disables
	// caching.
	Cache *PointStore
}

// DefaultCacheEntries bounds the explorer's point store: larger than the
// biggest paper sweep (Table 5's 2304 designs) so a full grid fits. Full
// of GPT-3 Table 5 designs it holds about 2.2 MB.
const DefaultCacheEntries = 8192

// NewExplorer returns an Explorer with the calibrated simulator, the 7 nm
// wafer model, and a point store of DefaultCacheEntries designs.
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

// PointStore is the point memo the explorer and the serving layer share:
// a store.Tiered LRU from PointKey to one compact record per design. A
// record holds the design's config and the scalars a sweep ranks,
// streams and finishes: TTFT, TBT, both MFUs, TPP, area, PD, reticle
// fit, October 2023 class and both die costs. It keeps no workload,
// which the key's workload hash names, and no per-operator profiles,
// which no sweep point has. A sweep serving a design from the store
// takes the config it asked for and its own workload, so a served point
// equals a freshly evaluated one field for field.
//
// A PointStore is a store.Tiered of records under the point methods
// below, so a pointer to one converts to the other and an explorer's
// store is one allocation.
type PointStore store.Tiered[record]

// lru returns ps as the store.Tiered it is.
func (ps *PointStore) lru() *store.Tiered[record] { return (*store.Tiered[record])(ps) }

// record is what the point store keeps of one design: its config, whose
// Name is the record's only pointer, and the point's scalars.
type record struct {
	cfg                              arch.Config
	ttft, tbt, prefillMFU, decodeMFU float64
	tpp, area, pd                    float64
	class                            policy.Classification
	dieCost, goodDieCost             float64
	fits                             bool
}

// recordBytes is the size of a record; with its key and its name it is
// what the store charges a design.
const recordBytes = int(unsafe.Sizeof(record{}))

// NewPointStore returns a point store bounded to entries designs, each
// charged its 16-byte key, its record and its config's name.
func NewPointStore(entries int) *PointStore {
	return (*PointStore)(store.NewTiered(entries, func(r record) int { return recordBytes + len(r.cfg.Name) }))
}

// Get returns the point stored under k, counting the probe as a hit or
// a miss: the stored config, named as it was stored, in Config and
// Result.Config, and the stored scalars. The store keeps no workload, so
// Result.Workload is zero, and no per-operator profiles. ctx is not
// used.
func (ps *PointStore) Get(_ context.Context, k store.Key) (Point, bool) {
	var r record
	if !ps.lru().GetInto(k, &r) {
		return Point{}, false
	}
	var p Point
	r.point(&p, &r.cfg, &model.Workload{})
	return p, true
}

// Put stores p's config and scalars under k, replacing what k held. ctx
// is not used.
func (ps *PointStore) Put(_ context.Context, k store.Key, p Point) { ps.put(k, &p) }

// put is Put without copying the point.
func (ps *PointStore) put(k store.Key, p *Point) {
	r := &p.Result
	ps.lru().Put(k, record{
		cfg:  p.Config,
		ttft: r.TTFTSeconds, tbt: r.TBTSeconds, prefillMFU: r.PrefillMFU, decodeMFU: r.DecodeMFU,
		tpp: p.TPP, area: p.AreaMM2, pd: p.PD, class: p.Oct2023Class,
		dieCost: p.DieCostUSD, goodDieCost: p.GoodDieCostUSD, fits: p.FitsReticle,
	})
}

// Stats snapshots the store's counters (see store.Tiered.Stats).
func (ps *PointStore) Stats() store.Stats { return ps.lru().Stats() }

// point writes r into *dst as the point of design cfg on workload w,
// every field once: a sweep serves thousands of designs, and assigning a
// whole Point literal through a pointer builds it in a temporary first.
func (r *record) point(dst *Point, cfg *arch.Config, w *model.Workload) {
	dst.Config = *cfg
	res := &dst.Result
	res.Config = *cfg
	res.Workload = *w
	res.TTFTSeconds, res.TBTSeconds = r.ttft, r.tbt
	res.PrefillMFU, res.DecodeMFU = r.prefillMFU, r.decodeMFU
	res.PrefillOps, res.DecodeOps = nil, nil
	dst.TPP, dst.AreaMM2, dst.PD = r.tpp, r.area, r.pd
	dst.FitsReticle, dst.Oct2023Class = r.fits, r.class
	dst.DieCostUSD, dst.GoodDieCostUSD = r.dieCost, r.goodDieCost
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
// It is a Session with one sweep, collected into the returned slice: see
// Session.Sweep for the windows and their spans. The points carry
// per-design scalars only: their Result's PrefillOps and DecodeOps are
// nil, as they are in every sweep point (per-operator profiles are a
// one-design query: sim.Simulate).
func (e *Explorer) EvaluateContext(ctx context.Context, configs []arch.Config, w model.Workload) ([]Point, error) {
	return e.NewSession(w).collect(ctx, source{configs: configs})
}

// Session evaluates one job's sweeps of one workload. Its first sweep
// lowers and hashes the workload, inside that sweep's dse.sweep span, and
// every sweep shares the graph and one batch.Evaluator, so the L2
// blocking searches of earlier sweeps serve later ones. The window
// workers' scratch is not the session's: each sweep takes it from a
// package free list and returns it when the sweep ends. A search run
// opens a session and evaluates each generation through it. A session
// serves one sweep at a time and lives for one job: kept longer, its L2
// table would grow into a process-wide memo.
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
	// hits and misses count the session's store outcomes; see CacheCounts.
	hits, misses atomic.Uint64
}

// NewSession opens a session evaluating configurations for w on e.
func (e *Explorer) NewSession(w model.Workload) *Session {
	return &Session{e: e, w: w, ev: batch.Evaluator{Engine: e.Sim.Engine}}
}

// CacheCounts returns the session's own point-store outcomes over all
// its sweeps: hits are designs the store served, misses designs its
// sweeps evaluated. Concurrent sessions sharing the store do not move
// them, though they move the store's Stats. An Explorer without a store
// counts neither.
func (s *Session) CacheCounts() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// collect sweeps src into the slice it returns, keeping the evaluated
// points in order when the sweep fails.
func (s *Session) collect(ctx context.Context, src source) ([]Point, error) {
	n := src.len()
	points := make([]Point, n)
	done := make([]bool, n)
	err := s.sweep(ctx, src, func(i int) *Point { return &points[i] }, func(w Window) {
		copy(done[w.Lo:], w.Done)
	})
	if err == nil {
		return points, nil
	}
	kept := points[:0]
	for i, ok := range done {
		if ok {
			kept = append(kept, points[i])
		}
	}
	return kept, err
}

// Sweep evaluates configs on the session's workload a window at a time.
// The configs split into fixed windows of WindowSize designs, and
// Parallelism workers each take one window at a time from the caller.
// A worker probes the point store, evaluates the window's misses (one
// sums-only batch.Evaluator pass, or one Sim.SimulateGraphContext call
// per design when Sim.Backend is set), and finishes and stores them. It
// then hands the finished Window to visit, unless visit is nil. Windows
// finish in any order and every worker calls visit, so it must be safe
// for concurrent use.
//
// at places the points: design i's point is written to *at(i), which the
// caller owns, one place per design. With a nil at, each worker writes
// into a window buffer of its own and reuses it for its next window, so
// a caller that only folds the points keeps none of them. The workers'
// buffers come from a package free list and go back to it when the sweep
// ends.
//
// Each window records one dse.window span with int attributes configs,
// hits (served by the store) and misses (simulated here), and the whole
// microseconds it spent in each stage: probe_us (store probes),
// evaluate_us, finish_us (finishing and storing what it evaluated) and
// emit_us (the visitor). Each stage's time also goes to the
// dse.window.<stage> histogram once per window; evaluate and finish only
// from windows that missed. Without a recorder in ctx a window reads no
// clock.
//
// Sweep returns nil once every design is evaluated. Otherwise it returns
// the designs' own failures, joined in input order, then an error
// wrapping ctx.Err() when ctx ended first; every window evaluated before
// then was visited.
func (s *Session) Sweep(ctx context.Context, configs []arch.Config, at func(i int) *Point, visit Visitor) error {
	return s.sweep(ctx, source{configs: configs}, at, visit)
}

// SweepGrid is Sweep over g's designs, indexed in Expand order, without
// expanding g: each window seeks a grid cursor to its first design and
// steps it through the window, so a sweep holds one window of configs
// per worker. A design's name is allocated when it is evaluated; a store
// hit keeps the stored point's name when its bytes are the requested
// name, and allocates only when they differ. A grid with a (dim, lanes)
// pair whose core count an int cannot hold is refused before the sweep
// starts, with an error wrapping arch.ErrOutOfRange.
func (s *Session) SweepGrid(ctx context.Context, g Grid, at func(i int) *Point, visit Visitor) error {
	gw, err := g.walk()
	if err != nil {
		return err
	}
	return s.sweep(ctx, source{grid: &gw}, at, visit)
}

// source is what a sweep evaluates: the caller's configs, or a grid
// walked a window at a time.
type source struct {
	configs []arch.Config
	grid    *gridWalk
}

func (src source) len() int {
	if src.grid != nil {
		return src.grid.n
	}
	return len(src.configs)
}

// sweep is the one sweep core behind Sweep and SweepGrid.
func (s *Session) sweep(ctx context.Context, src source, at func(i int) *Point, visit Visitor) error {
	ctx, sp := obs.Start(ctx, "dse.sweep")
	defer sp.End()
	n := src.len()
	sp.SetInt("configs", n)
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
		return fmt.Errorf("dse: %w", s.err)
	}
	sw := &sweep{
		Session: s,
		ctx:     ctx,
		src:     src,
		at:      at,
		visit:   visit,
		rec:     obs.RecorderFrom(ctx),
	}
	workers := s.e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+WindowSize-1)/WindowSize)
	// The caller hands out window starts one at a time: a worker that
	// finds none ready parks, which gives the scheduler the idle
	// moments it polls the network in, so streamed frames and new
	// requests are not starved behind the sweep.
	windows := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := windowPool.get()
			w.work(sw, windows)
			windowPool.put(w)
		}()
	}
feed:
	for lo := 0; lo < n; lo += WindowSize {
		select {
		case windows <- lo:
		case <-ctx.Done():
			break feed
		}
	}
	close(windows)
	wg.Wait()

	cerr := ctx.Err()
	if len(sw.errs) == 0 && cerr == nil {
		return nil
	}
	slices.SortFunc(sw.errs, func(a, b designErr) int { return cmp.Compare(a.i, b.i) })
	errs := make([]error, 0, len(sw.errs)+1)
	for _, de := range sw.errs {
		errs = append(errs, de.err)
	}
	if cerr != nil {
		errs = append(errs, fmt.Errorf("dse: sweep aborted: %w", cerr))
	}
	return errors.Join(errs...)
}

// sweep is one sweep call's shared state.
type sweep struct {
	*Session
	ctx   context.Context
	src   source
	at    func(int) *Point
	visit Visitor
	rec   *obs.Recorder

	mu   sync.Mutex
	errs []designErr // under mu
}

// designErr is one design's failure, at its index in the sweep.
type designErr struct {
	i   int
	err error
}

// fail records the failure of design i, named name.
func (sw *sweep) fail(i int, name string, err error) {
	sw.mu.Lock()
	sw.errs = append(sw.errs, designErr{i, fmt.Errorf("dse: %s: %w", name, err)})
	sw.mu.Unlock()
}

// The timed stages of a window, in the order a window runs them.
const (
	stageProbe = iota
	stageEvaluate
	stageFinish
	stageEmit
	numStages
)

var (
	stageAttrs = [numStages]string{"probe_us", "evaluate_us", "finish_us", "emit_us"}
	stageNames = [numStages]string{"dse.window.probe", "dse.window.evaluate", "dse.window.finish", "dse.window.emit"}
)

// window is one worker's scratch, reused across the windows it takes.
// It comes from windowPool for one sweep and goes back when the sweep
// ends, so jobs share grown buffers, the batch evaluator's arena in out
// among them, instead of allocating their own.
type window struct {
	sw *sweep
	// lo is the index of the current window's first design. pts[k] is
	// where design lo+k's point goes and done[k] whether it was
	// evaluated; own backs pts when the sweep places no points itself.
	lo   int
	pts  [WindowSize]*Point
	done [WindowSize]bool
	own  []Point
	// cfgs are the current window's configs: a view of the sweep's
	// configs, or a grid window's own, held in grid. A grid window
	// keeps design k's name bytes in names, ending at nameEnd[k], until
	// the probe gives its config a Name.
	cfgs    []arch.Config
	grid    [WindowSize]arch.Config
	cur     gridCursor
	names   []byte
	nameEnd [WindowSize]int
	// miss holds the window positions the store did not serve and keys
	// their point keys (none without a store).
	miss []int
	keys []store.Key
	// in and out are the batch evaluator's input and output; out keeps
	// the evaluator's scratch arena from window to window.
	in  []arch.Config
	out batch.Outcome
	// The current window's span tallies.
	hits, misses int
	// With a recorder, mark is when the last stage ended and dur holds
	// each stage's time in the current window.
	mark time.Time
	dur  [numStages]time.Duration
}

// windowPool recycles window scratch across sweeps: a sweep takes one
// window per worker and puts them back when it ends. It is a plain free
// list, not a sync.Pool, so any worker reuses any free window and a
// garbage collection drops none: a warm sweep allocates no scratch, and
// an allocation count does not depend on which processor a worker ran
// on. It keeps at most four windows per processor.
var windowPool windowList

type windowList struct {
	mu   sync.Mutex
	free []*window // under mu
}

func (l *windowList) get() *window {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(window)
	}
	w := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return w
}

func (l *windowList) put(w *window) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < 4*runtime.GOMAXPROCS(0) {
		l.free = append(l.free, w)
	}
}

// work evaluates sw's windows starting at each design index it receives,
// skipping them once the sweep's context has ended. It then drops its
// references into the sweep, so the pooled window keeps neither the
// caller's points nor its configs.
func (w *window) work(sw *sweep, windows <-chan int) {
	w.sw = sw
	for lo := range windows {
		if sw.ctx.Err() != nil {
			continue // cancelled: drain without evaluating
		}
		w.run(lo, min(lo+WindowSize, sw.src.len()))
		// Let a readied stream writer onto a processor between windows,
		// so streamed points reach clients while the sweep goes on.
		runtime.Gosched()
	}
	w.sw, w.cfgs = nil, nil
	clear(w.pts[:])
}

// lap adds the time since the previous lap to stage s. Without a
// recorder it reads no clock.
func (w *window) lap(s int) {
	if w.sw.rec == nil {
		return
	}
	now := time.Now()
	w.dur[s] += now.Sub(w.mark)
	w.mark = now
}

// run evaluates the designs [lo, hi) and hands them to the sweep's
// visitor.
func (w *window) run(lo, hi int) {
	sw := w.sw
	ctx, sp := obs.Start(sw.ctx, "dse.window")
	defer sp.End()
	if sw.rec != nil {
		w.mark, w.dur = time.Now(), [numStages]time.Duration{}
	}
	n := hi - lo
	w.lo = lo
	if sw.at == nil && w.own == nil {
		w.own = make([]Point, WindowSize)
	}
	for k := 0; k < n; k++ {
		if sw.at != nil {
			w.pts[k] = sw.at(lo + k)
		} else {
			w.pts[k] = &w.own[k]
		}
		w.done[k] = false
	}
	w.load(n)
	w.hits, w.misses = 0, 0
	w.miss, w.keys = w.miss[:0], w.keys[:0]
	cache := sw.e.Cache
	var rec record
	for k := 0; k < n; k++ {
		if cache != nil {
			key := store.Key{Hi: ir.ConfigHash(w.cfgs[k]), Lo: sw.wh} // == PointKey(cfg, workload)
			if cache.lru().GetInto(key, &rec) {
				w.name(k, rec.cfg.Name)
				w.serve(k, &rec)
				w.hits++
				continue
			}
			w.keys = append(w.keys, key)
		}
		w.name(k, "")
		w.miss = append(w.miss, k)
	}
	w.lap(stageProbe)
	if len(w.miss) > 0 {
		w.evaluate(ctx)
	}
	sp.SetInt("configs", n)
	sp.SetInt("hits", w.hits)
	sp.SetInt("misses", w.misses)
	if cache != nil {
		sw.hits.Add(uint64(w.hits))
		sw.misses.Add(uint64(w.misses))
	}
	if sw.visit != nil {
		sw.visit(Window{Lo: lo, Points: w.pts[:n], Done: w.done[:n]})
	}
	w.lap(stageEmit)
	if sw.rec != nil {
		missed := len(w.miss) > 0
		for s, d := range w.dur {
			sp.SetInt(stageAttrs[s], int(d/time.Microsecond))
			if missed || s == stageProbe || s == stageEmit {
				sw.rec.Observe(stageNames[s], d)
			}
		}
	}
}

// load points w.cfgs at the current window's n configs. A grid window
// seeks its cursor to the window's first design and steps it through the
// window, keeping each design's name bytes for name.
func (w *window) load(n int) {
	src := w.sw.src
	if src.grid == nil {
		w.cfgs = src.configs[w.lo : w.lo+n]
		return
	}
	w.cur.seek(src.grid, w.lo)
	w.names = w.names[:0]
	for k := 0; k < n; k++ {
		if k > 0 {
			w.cur.next(src.grid)
		}
		w.cur.fill(src.grid, &w.grid[k], "")
		w.names = append(w.names, w.cur.name...)
		w.nameEnd[k] = len(w.names)
	}
	w.cfgs = w.grid[:n]
}

// name gives a grid window's design k its Name: stored, the name of the
// point the store served, when its bytes are the requested name, and a
// new string otherwise. A window over the caller's configs has its
// names already.
func (w *window) name(k int, stored string) {
	if w.sw.src.grid == nil {
		return
	}
	start := 0
	if k > 0 {
		start = w.nameEnd[k-1]
	}
	if b := w.names[start:w.nameEnd[k]]; string(b) == stored {
		w.cfgs[k].Name = stored
	} else {
		w.cfgs[k].Name = string(b)
	}
}

// serve writes the store's record of window position k's design into its
// point. The record may have been stored under a different grid's display
// name; the point takes the requested config and the session's workload.
func (w *window) serve(k int, r *record) {
	r.point(w.pts[k], &w.cfgs[k], &w.sw.g.Workload)
	w.done[k] = true
}

// evaluate simulates the window's missed designs, then finishes and
// stores each one that succeeds.
func (w *window) evaluate(ctx context.Context) {
	sw := w.sw
	out := &w.out
	if out.Results == nil { // first evaluation of this window
		out.Results, out.Done = make([]sim.Result, WindowSize), make([]bool, WindowSize)
	}
	out.Results, out.Done = out.Results[:len(w.miss)], out.Done[:len(w.miss)]
	if simr := sw.e.Sim; simr.Backend != nil || simr.Engine == nil {
		out.Errs = nil
		for j, k := range w.miss {
			out.Done[j] = false
			if ctx.Err() != nil {
				continue
			}
			cfg := &w.cfgs[k]
			r, err := simr.SimulateGraphContext(ctx, *cfg, sw.g)
			if err != nil {
				sw.fail(w.lo+k, cfg.Name, err)
				w.misses++
				continue
			}
			out.Results[j], out.Done[j] = r, true
		}
	} else {
		w.in = w.in[:0]
		for _, k := range w.miss {
			w.in = append(w.in, w.cfgs[k])
		}
		// Sums only: a sweep point carries per-design scalars, so the
		// evaluator keeps no per-op Times. The only sweep-level error is
		// cancellation, which Sweep reports from ctx.
		sw.ev.SweepInto(ctx, w.in, sw.g, out, nil) //nolint:errcheck
	}
	w.lap(stageEvaluate)
	for j, k := range w.miss {
		if out.Errs != nil && out.Errs[j] != nil {
			sw.fail(w.lo+k, w.cfgs[k].Name, out.Errs[j])
			w.misses++
		} else if out.Done[j] {
			w.finish(j, &out.Results[j])
			w.misses++
		}
	}
	w.lap(stageFinish)
}

// finish completes the missed design at position j of w.miss from its
// simulated profile and stores it.
func (w *window) finish(j int, r *sim.Result) {
	sw := w.sw
	k := w.miss[j]
	p := w.pts[k]
	sw.e.finishPoint(p, w.cfgs[k], r)
	if sw.e.Cache != nil {
		sw.e.Cache.put(w.keys[j], p)
	}
	w.done[k] = true
}

// finishPoint derives the area, TPP, compliance and cost fields of one
// evaluated design, writing the point in place: a sweep finalises
// hundreds of designs, and assembling each ~460-byte Point directly in its
// slot keeps the loop free of by-value staging copies. The point keeps
// r's scalars and drops its per-operator profiles, if it has any (a
// Sim.Backend sweep's do): no sweep point holds them. Wafer-model
// failures (degenerate areas) leave both costs zero, as the paper's
// tables do.
func (e *Explorer) finishPoint(dst *Point, cfg arch.Config, r *sim.Result) {
	a := area.Estimate(cfg)
	tpp := cfg.TPP()
	dst.Config = cfg
	dst.Result = *r
	dst.Result.PrefillOps, dst.Result.DecodeOps = nil, nil
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

// Run evaluates a grid in one call.
func (e *Explorer) Run(g Grid, w model.Workload) ([]Point, error) {
	return e.RunContext(context.Background(), g, w)
}

// RunContext evaluates a grid under a context, a window at a time
// without expanding it (Session.SweepGrid); see EvaluateContext for
// cancellation and partial-result semantics. It refuses an out-of-range
// grid before sweeping, as SweepGrid does.
func (e *Explorer) RunContext(ctx context.Context, g Grid, w model.Workload) ([]Point, error) {
	gw, err := g.walk()
	if err != nil {
		return nil, err
	}
	return e.NewSession(w).collect(ctx, source{grid: &gw})
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

// named is one entry of a lookup table by name.
type named[F any] struct {
	name string
	f    F
}

// rules are the compliance regimes a design can be admitted under, by
// name. Every rule requires a die that fits the reticle; oct2022 also
// requires escaping the October 2022 rule (TPP < 4800 or device
// bandwidth < 600 GB/s), and oct2023 a design the October 2023 rule does
// not regulate at all, not even as NAC-eligible (Point.Compliant, the
// strict criterion of §4.3).
var rules = []named[func(Point) bool]{
	{"none", func(p Point) bool { return p.FitsReticle }},
	{"oct2022", func(p Point) bool {
		return p.FitsReticle && !policy.Oct2022(policy.Metrics{
			TPP: p.TPP, DeviceBWGBs: p.Config.DeviceBWGBs,
		}).Restricted()
	}},
	{"oct2023", Point.Compliant},
}

// objectives are the metrics a ranking can minimise, by name: the
// prefill and decode latencies and their die-cost products.
var objectives = []named[func(Point) float64]{
	{"ttft", MetricTTFT},
	{"tbt", MetricTBT},
	{"ttftcost", MetricTTFTCost},
	{"tbtcost", MetricTBTCost},
}

// Rule returns the admission predicate of the named rule (none, oct2022,
// oct2023). An unknown name is an error that lists the valid ones.
func Rule(name string) (func(Point) bool, error) { return lookup("rule", name, rules) }

// Objective returns the metric of the named objective (ttft, tbt,
// ttftcost, tbtcost). An unknown name is an error that lists the valid
// ones.
func Objective(name string) (func(Point) float64, error) {
	return lookup("objective", name, objectives)
}

// lookup returns the entry of table called name.
func lookup[F any](kind, name string, table []named[F]) (F, error) {
	for _, e := range table {
		if e.name == name {
			return e.f, nil
		}
	}
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	var zero F
	return zero, fmt.Errorf("unknown %s %q (%s)", kind, name, strings.Join(names, ", "))
}
