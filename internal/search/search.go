package search

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"

	"repro/internal/dse"
	"repro/internal/model"
)

// Objective is one minimised search criterion read off an evaluated
// design point.
type Objective struct {
	Name string
	F    func(dse.Point) float64
}

// ObjectivesLatencyArea is the oracle objective pair: prefill latency
// (ms) against die area — the trade the paper's Fig. 6 fronts plot.
func ObjectivesLatencyArea() [2]Objective {
	return [2]Objective{
		{Name: "ttft_ms", F: func(p dse.Point) float64 { return p.TTFT() * 1e3 }},
		{Name: "area_mm2", F: func(p dse.Point) float64 { return p.AreaMM2 }},
	}
}

// ObjectivesDecodeTPP trades decode latency against TPP — the Jan-2025
// quantity-cap question: how fast can a device be per unit of the
// national allocation it consumes.
func ObjectivesDecodeTPP() [2]Objective {
	return [2]Objective{
		{Name: "tbt_ms", F: func(p dse.Point) float64 { return p.TBT() * 1e3 }},
		{Name: "tpp", F: func(p dse.Point) float64 { return p.TPP }},
	}
}

// Problem is one search instance: a space, the workload every point is
// simulated on, the minimised objective pair, and a feasibility
// predicate.
type Problem struct {
	Space      Space
	Workload   model.Workload
	Objectives [2]Objective
	// Feasible classifies an evaluated point and quantifies constraint
	// violation for infeasible ones (engines steer by Deb's constrained
	// dominance: any feasible point beats any infeasible one). Nil means
	// reticle fit only.
	Feasible func(dse.Point) (ok bool, violation float64)
}

// FeasibleReticle is the default constraint: manufacturable as a single
// die. Violation is the fractional reticle overage.
func FeasibleReticle(p dse.Point) (bool, float64) {
	if p.FitsReticle {
		return true, 0
	}
	return false, p.AreaMM2/reticleLimitMM2 - 1
}

// reticleLimitMM2 mirrors area.FitsReticle's bound for violation scaling.
const reticleLimitMM2 = 860.0

// feasible applies the problem's predicate or the default.
func (p Problem) feasible(pt dse.Point) (bool, float64) {
	if p.Feasible == nil {
		return FeasibleReticle(pt)
	}
	return p.Feasible(pt)
}

// objectives evaluates the problem's objective vector for a point.
func (p Problem) objectives(pt dse.Point) [2]float64 {
	return [2]float64{p.Objectives[0].F(pt), p.Objectives[1].F(pt)}
}

// Result is one observed design: the genome as proposed, the decoded
// configuration and its evaluation, and the derived search view
// (objective vector, feasibility). Engines receive Results via Observe
// in proposal order.
type Result struct {
	Genome Genome
	// Hash identifies the decoded design (ir.ConfigHash): the dedup key
	// the runner's archive and the oracle's front-recovery metric share.
	Hash  uint64
	Point dse.Point
	Objs  [2]float64
	// Feasible and Violation carry the problem's constraint verdict.
	Feasible  bool
	Violation float64
	// Revisited marks a proposal whose design was already evaluated —
	// served from the archive without consuming evaluation budget.
	Revisited bool
	// DecodeErr is set when the genome snapped to no legal device (e.g.
	// one core already exceeds the TPP budget); such results carry no
	// Point and never consume budget.
	DecodeErr string
}

// Explorer is an adaptive design-space engine. The runner calls Propose
// for the next candidate batch, evaluates it through the memoized dse
// pipeline, and feeds the outcomes back via Observe; Front returns the
// engine's current non-dominated feasible set. Implementations must be
// deterministic for a fixed seed (Observe order is deterministic
// regardless of evaluation parallelism) and safe for concurrent Observe
// calls.
type Explorer interface {
	Name() string
	// Propose returns up to max candidate genomes for the next
	// generation. An empty batch means the engine has converged.
	Propose(max int) []Genome
	// Observe records evaluated results for a proposed batch, in
	// proposal order (revisited and undecodable proposals included).
	// An engine may keep pointers into results, so the caller must not
	// modify the slice's elements afterwards; the runner passes a fresh
	// slice every generation.
	Observe(results []Result)
	// Front returns the non-dominated feasible results observed so far,
	// sorted by objective vector then design hash.
	Front() []Result
}

// archive is the engine-shared memory of every observed design: dedup by
// hash, running objective ranges for scalarisation, and the Pareto front,
// kept up to date as results are added. A mutex guards all state, so an
// engine stays safe for concurrent Observe calls; the runner itself
// calls Propose, Observe and Front from one goroutine.
type archive struct {
	mu   sync.Mutex
	seen map[uint64]int // hash -> index in all
	// all points into the observed results slices (Observe's contract).
	all []*Result
	// lo, hi are running per-objective ranges over feasible results,
	// used to normalise scalarised energies; zero until the first one.
	lo, hi [2]float64
	// front indexes all's feasible non-dominated results, every tie
	// included, ordered by objective vector then hash.
	front []int
}

func newArchive() archive {
	return archive{seen: make(map[uint64]int)}
}

// add records results, returning nothing; duplicates refresh nothing.
func (a *archive) add(rs []Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for j := range rs {
		r := &rs[j]
		if r.DecodeErr != "" {
			continue
		}
		if _, ok := a.seen[r.Hash]; ok {
			continue
		}
		a.seen[r.Hash] = len(a.all)
		a.all = append(a.all, r)
		if !r.Feasible {
			continue
		}
		if len(a.front) == 0 { // the first feasible result
			a.lo, a.hi = r.Objs, r.Objs
		}
		for i, v := range r.Objs {
			if v < a.lo[i] {
				a.lo[i] = v
			}
			if v > a.hi[i] {
				a.hi[i] = v
			}
		}
		a.insertFront(len(a.all) - 1)
	}
}

// insertFront files the feasible result all[i] into the front: a member
// that dominates it drops it, otherwise it evicts the members it
// dominates. Along a two-objective front in objective-vector order the
// second objective never rises, so the only possible dominator is the
// member just before the insertion point, and the members it dominates
// are the run just after it.
func (a *archive) insertFront(i int) {
	r := a.all[i]
	pos := sort.Search(len(a.front), func(k int) bool { return frontLess(r, a.all[a.front[k]]) })
	if pos > 0 && Dominates(a.all[a.front[pos-1]].Objs, r.Objs) {
		return
	}
	end := pos
	for end < len(a.front) && Dominates(r.Objs, a.all[a.front[end]].Objs) {
		end++
	}
	a.front = slices.Replace(a.front, pos, end, i)
}

// frontLess orders results by objective vector then hash — a total,
// deterministic order, since the archive holds each hash once.
func frontLess(a, b *Result) bool {
	for k := range a.Objs {
		if a.Objs[k] < b.Objs[k] {
			return true
		}
		if a.Objs[k] > b.Objs[k] {
			return false
		}
	}
	return a.Hash < b.Hash
}

// ranges snapshots the per-objective normalisation ranges.
func (a *archive) ranges() (lo, hi [2]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lo, a.hi
}

// Front returns a copy of the archive's front.
func (a *archive) Front() []Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	front := make([]Result, len(a.front))
	for k, i := range a.front {
		front[k] = *a.all[i]
	}
	return front
}

// size returns the number of distinct designs observed.
func (a *archive) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.all)
}

// chebyshev is the weighted-Chebyshev achievement scalarisation of an
// objective vector against normalisation ranges: unlike a weighted sum
// it can reach non-convex front regions, so annealing and pattern
// search cover the same fronts NSGA-II does. Infeasible results rank
// after every feasible one by a violation-scaled penalty.
func chebyshev(r *Result, weights, lo, hi [2]float64) float64 {
	if !r.Feasible {
		return 1e3 + r.Violation
	}
	worst := 0.0
	sum := 0.0
	for i, v := range r.Objs {
		span := 1.0
		if hi[i] > lo[i] {
			span = hi[i] - lo[i]
		}
		norm := (v - lo[i]) / span
		if t := weights[i] * norm; t > worst {
			worst = t
		}
		sum += norm
	}
	// The small augmentation term breaks plateau ties toward points
	// better on the non-binding objectives.
	return worst + 1e-3*sum
}

// weightVector returns the k-th of n evenly spread weight vectors.
func weightVector(k, n int) [2]float64 {
	t := (float64(k) + 0.5) / float64(n)
	return [2]float64{t, 1 - t}
}

// newRNG builds a per-engine PCG source, mirroring internal/trace: each
// engine owns its stream (nothing touches the process-global source) and
// distinct seeds select distinct streams via the fixed odd increment.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
}

// randomGenome samples a uniform point in the unit cube.
func randomGenome(rng *rand.Rand, dims int) Genome {
	g := make(Genome, dims)
	for i := range g {
		g[i] = rng.Float64()
	}
	return g
}

// cornerGenomes returns deterministic extreme seeds: the all-low and
// all-high corners plus each single-axis extreme off the opposite
// corner. Corner designs frequently sit on DSE Pareto fronts (the
// smallest and fastest devices), so seeding them accelerates front
// recovery at negligible cost.
func cornerGenomes(dims int) []Genome {
	gs := make([]Genome, 0, 2+2*dims)
	low := make(Genome, dims)
	high := make(Genome, dims)
	for i := range high {
		low[i] = 0.01
		high[i] = 0.99
	}
	gs = append(gs, low, high)
	for i := 0; i < dims; i++ {
		a := append(Genome(nil), low...)
		a[i] = 0.99
		b := append(Genome(nil), high...)
		b[i] = 0.01
		gs = append(gs, a, b)
	}
	return gs
}

// visitFilter tracks which lattice points an engine has already
// proposed, by an FNV-1a hash of the snapped per-axis indices (safe for
// lattices too large to enumerate). Engines use it to spend Propose
// slots on novel designs: proposing a visited point is never wrong (the
// runner serves it from the archive at zero budget), just wasteful.
type visitFilter struct {
	seen map[uint64]bool
	// scanned maps a front member's design hash to the ±1 slot
	// (2·axis, +1 before −1) its neighbour scan resumes from. Every slot
	// before the cursor is already in seen, and seen only grows, so a
	// rescan of those slots could propose nothing.
	scanned map[uint64]int
}

func newVisitFilter() visitFilter {
	return visitFilter{seen: make(map[uint64]bool), scanned: make(map[uint64]int)}
}

// key hashes the snapped indices, Space.Indices(g) folded level by
// level without building the slice.
func (f *visitFilter) key(s Space, g Genome) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i, a := range s.Axes {
		level := 0
		if i < len(g) {
			level = a.Snap(g[i])
		}
		h ^= uint64(level)
		h *= 1099511628211
	}
	return h
}

// visit records the genome's lattice point and reports whether it was
// new.
func (f *visitFilter) visit(s Space, g Genome) bool {
	k := f.key(s, g)
	if f.seen[k] {
		return false
	}
	f.seen[k] = true
	return true
}

// frontNeighbors returns up to limit not-yet-visited lattice points
// adjacent (±1 along a single axis) to the archive's front members, in
// deterministic front-then-axis order, recording each in the filter.
// Each member's scan resumes from its cursor in the filter, so a call
// costs one lookup per exhausted member rather than a rescan of its
// whole neighbourhood. On a two-objective staircase front, adjacent
// lattice points hold most of the remaining front, so engines use this
// as their local-polish move (memetic local search for NSGA-II,
// low-temperature exploitation for annealing, poll seeding for pattern
// search).
func (a *archive) frontNeighbors(s Space, f *visitFilter, limit int) []Genome {
	if limit <= 0 {
		// A non-positive limit means no slots, not "unbounded": the
		// equality check below would never fire and the whole
		// neighbourhood would be proposed, blowing the caller's batch.
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Genome, 0, limit)
	slots := 2 * s.Dims()
	for _, i := range a.front {
		r := a.all[i]
		slot := f.scanned[r.Hash]
		if slot == slots {
			continue
		}
		idx := s.Indices(r.Genome)
		for ; slot < slots; slot++ {
			ax := slot / 2
			v := idx[ax] + 1 - 2*(slot%2)
			if v < 0 || v >= s.Axes[ax].Levels() {
				continue
			}
			n := slices.Clone(idx)
			n[ax] = v
			g := s.GenomeAt(n)
			if f.visit(s, g) {
				out = append(out, g)
				if len(out) == limit {
					f.scanned[r.Hash] = slot + 1
					return out
				}
			}
		}
		f.scanned[r.Hash] = slots
	}
	return out
}

// randomFrontGenome returns the genome of a uniformly drawn front
// member, drawing from rng only when the front is non-empty.
func (a *archive) randomFrontGenome(rng *rand.Rand) (Genome, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.front) == 0 {
		return nil, false
	}
	return a.all[a.front[rng.IntN(len(a.front))]].Genome, true
}

// validateProblem rejects unusable problems before any evaluation.
func validateProblem(p Problem) error {
	if p.Space.Dims() == 0 {
		return fmt.Errorf("search: space %q has no axes", p.Space.Name)
	}
	for _, a := range p.Space.Axes {
		if a.Levels() == 0 {
			return fmt.Errorf("search: axis %s of space %q has no values", a.Role, p.Space.Name)
		}
	}
	if p.Objectives[0].F == nil || p.Objectives[1].F == nil {
		return fmt.Errorf("search: problem needs two objective functions")
	}
	return nil
}
