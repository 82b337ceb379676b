package search

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/num"
)

// nsga2 is the elitist non-dominated-sorting genetic algorithm (Deb's
// NSGA-II) over unit-cube genomes: binary-tournament selection on
// (rank, crowding distance), simulated binary crossover, polynomial
// mutation, and environmental selection of parents+offspring by
// constrained non-dominated sort with crowding-distance tie-breaks.
// Theseus explores wafer-scale accelerator spaces with exactly this
// family of evolutionary multi-objective search.
type nsga2 struct {
	archive
	emu   sync.Mutex
	space Space
	rng   *rand.Rand
	pop   int
	etaC  float64 // SBX distribution index
	etaM  float64 // polynomial-mutation distribution index
	// parents is the current population, sorted best-first by
	// (rank, crowding, hash) so tournament selection can compare by
	// position alone. It points into observed results slices.
	parents     []*Result
	initialised bool
	// filter steers offspring away from already-visited lattice points
	// so the evaluation budget buys new designs, not revisits.
	filter visitFilter
}

func newNSGA2(space Space, seed uint64) Explorer {
	dims := space.Dims()
	pop := 4 * dims
	if pop < 16 {
		pop = 16
	}
	if pop > 48 {
		pop = 48
	}
	return &nsga2{
		archive: newArchive(),
		space:   space,
		rng:     newRNG(seed),
		pop:     pop,
		etaC:    10,
		etaM:    20,
		filter:  newVisitFilter(),
	}
}

func (e *nsga2) Name() string { return "nsga2" }

func (e *nsga2) Propose(max int) []Genome {
	e.emu.Lock()
	defer e.emu.Unlock()
	if max <= 0 {
		return nil
	}
	n := e.pop
	if n > max {
		n = max
	}
	out := make([]Genome, 0, n)
	if !e.initialised {
		// First generation: deterministic corner seeds, then uniform
		// random fill.
		for _, g := range cornerGenomes(e.space.Dims()) {
			if len(out) == n {
				break
			}
			e.filter.visit(e.space, g)
			out = append(out, g)
		}
		for len(out) < n {
			out = append(out, e.novelize(randomGenome(e.rng, e.space.Dims())))
		}
		e.initialised = true
		return out
	}
	// Memetic local search first: polish the current elite front by
	// proposing its unvisited lattice neighbours (up to half the
	// generation), then fill with genetic offspring.
	out = append(out, e.archive.frontNeighbors(e.space, &e.filter, n/2)...)
	for len(out) < n {
		p1 := e.tournament()
		p2 := e.tournament()
		c1, c2 := e.crossover(p1, p2)
		e.mutate(c1)
		e.mutate(c2)
		out = append(out, e.novelize(c1))
		if len(out) < n {
			out = append(out, e.novelize(c2))
		}
	}
	return out
}

// novelize nudges a genome off already-visited lattice points: first by
// widening single-axis jumps (preserving the offspring's locality),
// then by uniform resampling, finally accepting the duplicate — which
// the runner serves from its archive without spending budget.
func (e *nsga2) novelize(g Genome) Genome {
	if e.filter.visit(e.space, g) {
		return g
	}
	for attempt := 0; attempt < 12; attempt++ {
		c := append(Genome(nil), g...)
		e.jitter(c, attempt)
		if e.filter.visit(e.space, c) {
			return c
		}
	}
	for attempt := 0; attempt < 12; attempt++ {
		c := randomGenome(e.rng, e.space.Dims())
		if e.filter.visit(e.space, c) {
			return c
		}
	}
	return g
}

// jitter moves one random axis by a lattice step that widens with the
// attempt number.
func (e *nsga2) jitter(g Genome, attempt int) {
	ax := e.rng.IntN(len(g))
	levels := e.space.Axes[ax].Levels()
	if levels <= 1 {
		return
	}
	idx := e.space.Indices(g)
	delta := 1 + e.rng.IntN(1+attempt)
	if e.rng.IntN(2) == 0 {
		delta = -delta
	}
	v := idx[ax] + delta
	if v < 0 {
		v = 0
	}
	if v >= levels {
		v = levels - 1
	}
	g[ax] = e.space.Axes[ax].Unit(v)
}

// tournament returns a parent genome by binary tournament; parents are
// sorted best-first, so the smaller index wins.
func (e *nsga2) tournament() Genome {
	if len(e.parents) == 0 {
		return randomGenome(e.rng, e.space.Dims())
	}
	i := e.rng.IntN(len(e.parents))
	j := e.rng.IntN(len(e.parents))
	if j < i {
		i = j
	}
	return e.parents[i].Genome
}

// crossover applies simulated binary crossover (SBX) per gene.
func (e *nsga2) crossover(a, b Genome) (Genome, Genome) {
	dims := e.space.Dims()
	c1 := make(Genome, dims)
	c2 := make(Genome, dims)
	for i := 0; i < dims; i++ {
		x, y := 0.5, 0.5
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if e.rng.Float64() < 0.5 {
			u := e.rng.Float64()
			var beta float64
			if u <= 0.5 {
				beta = math.Pow(2*u, 1/(e.etaC+1))
			} else {
				beta = math.Pow(1/(2*(1-u)), 1/(e.etaC+1))
			}
			c1[i] = num.Clamp01(0.5 * ((1+beta)*x + (1-beta)*y))
			c2[i] = num.Clamp01(0.5 * ((1-beta)*x + (1+beta)*y))
		} else {
			c1[i], c2[i] = x, y
		}
	}
	return c1, c2
}

// mutate applies polynomial mutation with rate 1/dims.
func (e *nsga2) mutate(g Genome) {
	dims := len(g)
	if dims == 0 {
		return
	}
	rate := 1 / float64(dims)
	for i := range g {
		if e.rng.Float64() >= rate {
			continue
		}
		u := e.rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(e.etaM+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(e.etaM+1))
		}
		g[i] = num.Clamp01(g[i] + delta)
	}
}

func (e *nsga2) Observe(results []Result) {
	e.archive.add(results)
	e.emu.Lock()
	defer e.emu.Unlock()
	// Environmental selection over parents + offspring, deduplicated by
	// design hash so crowding distances are not skewed by revisits.
	pool := make([]*Result, 0, len(e.parents)+len(results))
	seen := make(map[uint64]bool, cap(pool))
	consider := func(r *Result) {
		if r.DecodeErr == "" && !seen[r.Hash] {
			seen[r.Hash] = true
			pool = append(pool, r)
		}
	}
	for _, r := range e.parents {
		consider(r)
	}
	for i := range results {
		consider(&results[i])
	}
	if len(pool) == 0 {
		return
	}
	ranks := constrainedRanks(pool)
	crowd := crowding(pool, ranks)
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	// Hashes are distinct within the pool, so this order is total and
	// any sort yields the same permutation.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(ranks[a], ranks[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(crowd[b], crowd[a]); c != 0 {
			return c
		}
		return cmp.Compare(pool[a].Hash, pool[b].Hash)
	})
	next := make([]*Result, min(e.pop, len(order)))
	for i := range next {
		next[i] = pool[order[i]]
	}
	e.parents = next
}
