package search

import (
	"math/rand/v2"
	"sync"
)

// pattern is coordinate pattern search (Hooke–Jeeves) on the axis-index
// lattice with random restarts: from a base design it polls ± step
// levels along every axis, moves to the best improving poll (with a
// pattern move extrapolating a successful direction), halves the step on
// failure, and when the step is exhausted restarts under the next
// weighted-Chebyshev direction — alternating between the best archived
// design for that direction and a random point. Scalarised runs sweep
// the front direction by direction while the archive accumulates every
// poll, so the reported front is the non-dominated set of everything
// visited.
type pattern struct {
	archive
	emu   sync.Mutex
	space Space
	rng   *rand.Rand

	weightRuns int
	runIdx     int
	weights    [2]float64
	base       []int
	// baseRes is the base's result, nil until a run adopts a base.
	baseRes *Result
	step    int
	// polls records the index vectors proposed in the last batch, in
	// proposal order, so Observe can map results back to moves.
	polls [][]int
	// lastDir is the axis delta of the last accepted move, used for the
	// pattern (extrapolation) move.
	lastDir []int
	seeded  bool
	// filter records visited lattice points so between-run probes target
	// the unexplored front neighbourhood.
	filter visitFilter
}

const patternWeightRuns = 16

func newPattern(space Space, seed uint64) Explorer {
	return &pattern{
		archive:    newArchive(),
		space:      space,
		rng:        newRNG(seed),
		weightRuns: patternWeightRuns,
		weights:    weightVector(0, patternWeightRuns),
		step:       initialStep(space),
		filter:     newVisitFilter(),
	}
}

// initialStep starts polling at a quarter of the widest axis so early
// moves cross the space instead of crawling.
func initialStep(s Space) int {
	max := 1
	for _, a := range s.Axes {
		if a.Levels() > max {
			max = a.Levels()
		}
	}
	step := max / 4
	if step < 1 {
		step = 1
	}
	return step
}

func (e *pattern) Name() string { return "pattern" }

func (e *pattern) Propose(max int) []Genome {
	e.emu.Lock()
	defer e.emu.Unlock()
	if max <= 0 {
		return nil
	}
	if !e.seeded {
		e.seeded = true
		e.polls = nil
		out := cornerGenomes(e.space.Dims())
		out = append(out, randomGenome(e.rng, e.space.Dims()))
		if len(out) > max {
			out = out[:max]
		}
		for _, g := range out {
			e.filter.visit(e.space, g)
		}
		return out
	}
	if e.baseRes == nil {
		// Between runs: probe the unexplored neighbourhood of the current
		// front (its missing staircase steps live there), falling back to
		// a random probe; Observe adopts the best as the next base.
		limit := 2 * e.space.Dims()
		if limit > max {
			limit = max
		}
		gs := e.archive.frontNeighbors(e.space, &e.filter, limit)
		if len(gs) == 0 {
			gs = []Genome{randomGenome(e.rng, e.space.Dims())}
			e.filter.visit(e.space, gs[0])
		}
		e.polls = e.polls[:0]
		for _, g := range gs {
			e.polls = append(e.polls, e.space.Indices(g))
		}
		return gs
	}
	out := make([]Genome, 0, 2*len(e.base)+1)
	e.polls = e.polls[:0]
	// Pattern move first: extrapolate the last successful direction.
	if e.lastDir != nil {
		if idx, ok := e.offset(e.base, e.lastDir, 1); ok {
			e.polls = append(e.polls, idx)
			g := e.space.GenomeAt(idx)
			e.filter.visit(e.space, g)
			out = append(out, g)
		}
	}
	for ax := range e.base {
		for _, sign := range []int{1, -1} {
			dir := make([]int, len(e.base))
			dir[ax] = sign * e.step
			if idx, ok := e.offset(e.base, dir, 1); ok {
				e.polls = append(e.polls, idx)
				g := e.space.GenomeAt(idx)
				e.filter.visit(e.space, g)
				out = append(out, g)
			}
			if len(out) >= max {
				return out
			}
		}
	}
	if len(out) == 0 {
		// Every poll clamped onto the base: shrink and retry next round.
		e.shrinkLocked()
		g := randomGenome(e.rng, e.space.Dims())
		e.filter.visit(e.space, g)
		e.polls = [][]int{e.space.Indices(g)}
		return []Genome{g}
	}
	return out
}

// offset returns base + scale*dir clamped per axis, and whether the
// result differs from base (a clamp that lands back on base is not a
// poll worth paying for).
func (e *pattern) offset(base, dir []int, scale int) ([]int, bool) {
	idx := make([]int, len(base))
	moved := false
	for i := range base {
		v := base[i] + scale*dir[i]
		levels := e.space.Axes[i].Levels()
		if v < 0 {
			v = 0
		}
		if v >= levels {
			v = levels - 1
		}
		idx[i] = v
		if v != base[i] {
			moved = true
		}
	}
	return idx, moved
}

func (e *pattern) Observe(results []Result) {
	e.archive.add(results)
	lo, hi := e.archive.ranges()
	e.emu.Lock()
	defer e.emu.Unlock()
	if e.baseRes == nil {
		// Adopt the best result seen so far under the current weights as
		// the run's base.
		e.adoptBestLocked(results, lo, hi)
		return
	}
	baseE := chebyshev(e.baseRes, e.weights, lo, hi)
	bestI := -1
	bestE := baseE
	for i := range results {
		if results[i].DecodeErr != "" || i >= len(e.polls) {
			continue
		}
		if en := chebyshev(&results[i], e.weights, lo, hi); en < bestE {
			bestE = en
			bestI = i
		}
	}
	if bestI >= 0 {
		newBase := e.polls[bestI]
		dir := make([]int, len(newBase))
		for i := range dir {
			dir[i] = newBase[i] - e.base[i]
		}
		e.lastDir = dir
		e.base = newBase
		e.baseRes = &results[bestI]
		return
	}
	e.lastDir = nil
	e.shrinkLocked()
}

// adoptBestLocked starts a run from the best candidate among the batch
// and the archive under the current weights.
func (e *pattern) adoptBestLocked(results []Result, lo, hi [2]float64) {
	bestE := 0.0
	var best *Result
	consider := func(r *Result) {
		if r.DecodeErr != "" {
			return
		}
		en := chebyshev(r, e.weights, lo, hi)
		if best == nil || en < bestE || (en == bestE && r.Hash < best.Hash) { //lint:ignore floateq deterministic tie-break on equal energies needs exact comparison
			bestE = en
			best = r
		}
	}
	e.archive.mu.Lock()
	for _, r := range e.archive.all {
		consider(r)
	}
	e.archive.mu.Unlock()
	for i := range results {
		consider(&results[i])
	}
	if best == nil {
		return
	}
	e.base = e.space.Indices(best.Genome)
	e.baseRes = best
	e.lastDir = nil
	e.step = initialStep(e.space)
}

// shrinkLocked halves the step; an exhausted step ends the run and
// rotates to the next scalarisation direction (restarting from the
// archive's best for that direction, or from a random point on
// alternating cycles).
func (e *pattern) shrinkLocked() {
	e.step /= 2
	if e.step >= 1 {
		return
	}
	e.runIdx++
	e.weights = weightVector(e.runIdx%e.weightRuns, e.weightRuns)
	e.step = initialStep(e.space)
	// Every other full weight cycle restarts from a random base to keep
	// exploring once all directions have been polished.
	if (e.runIdx/e.weightRuns)%2 == 1 {
		e.base = e.space.Indices(randomGenome(e.rng, e.space.Dims()))
		e.baseRes = nil // adopt the evaluated random probe next Observe
		return
	}
	e.baseRes = nil
}
