package search

import (
	"math"
	"math/rand/v2"
	"sync"
)

// anneal is multi-chain simulated annealing with adaptive cooling. Each
// chain owns one weighted-Chebyshev scalarisation direction (so the
// chain family sweeps the whole front, including non-convex regions),
// walks the axis-index lattice by geometric-sized steps, and cools on a
// fixed schedule that adaptively reheats when the acceptance rate
// collapses and restarts from a random point when the chain stalls.
// Every evaluation lands in the shared archive, so the reported front
// comes from everything any chain visited.
type anneal struct {
	archive
	emu    sync.Mutex
	space  Space
	rng    *rand.Rand
	chains []*chain
	// temp is the shared temperature; cool/reheat bounds below.
	temp float64
	// accepted/proposed count the sliding acceptance window.
	accepted, proposed int
	// filter steers neighbor proposals off already-visited lattice
	// points; revisits cost no budget but buy no information either.
	filter visitFilter
	// nextWeight rotates restarted chains onto fresh scalarisation
	// directions so the chain family covers more of the front than its
	// initial spread.
	nextWeight int
}

// chain is one annealing walker.
type chain struct {
	weights [2]float64
	// cur is the chain's current result, nil until it adopts one.
	cur *Result
	// stall counts observations without an accepted move.
	stall int
}

const (
	annealChains = 8
	// annealDirections is the pool of scalarisation directions restarted
	// chains rotate through — finer than the chain count so long runs
	// sweep front regions the initial spread misses.
	annealDirections = 32
	annealInitTemp   = 1.0
	annealMinTemp    = 1e-3
	annealMaxTemp    = 4.0
	annealCooling    = 0.90
	annealReheat     = 2.5
	annealStallMax   = 6
	annealAcceptLow  = 0.08
)

func newAnneal(space Space, seed uint64) Explorer {
	e := &anneal{
		archive: newArchive(),
		space:   space,
		rng:     newRNG(seed),
		temp:    annealInitTemp,
		filter:  newVisitFilter(),
	}
	stride := annealDirections / annealChains
	for k := 0; k < annealChains; k++ {
		// Initial chains stride across the full direction pool; restarts
		// later fill the gaps via nextWeight.
		e.chains = append(e.chains, &chain{weights: weightVector(k*stride, annealDirections)})
	}
	e.nextWeight = 2
	return e
}

func (e *anneal) Name() string { return "anneal" }

func (e *anneal) Propose(max int) []Genome {
	e.emu.Lock()
	defer e.emu.Unlock()
	if max <= 0 {
		return nil
	}
	out := make([]Genome, 0, len(e.chains))
	if !e.started() {
		// First batch: corners seed the archive's objective ranges, then
		// one random start per chain.
		for _, g := range cornerGenomes(e.space.Dims()) {
			if len(out) == max {
				return out
			}
			e.filter.visit(e.space, g)
			out = append(out, g)
		}
		for range e.chains {
			if len(out) == max {
				break
			}
			out = append(out, e.novel(randomGenome(e.rng, e.space.Dims())))
		}
		return out
	}
	// Chains that stopped accepting moves exploit the unexplored front
	// neighbourhood instead of walking.
	for _, c := range e.chains {
		if len(out) == max {
			break
		}
		if c.cur != nil && c.stall > 1 {
			if gs := e.archive.frontNeighbors(e.space, &e.filter, 1); len(gs) > 0 {
				out = append(out, gs[0])
				continue
			}
		}
		if c.cur == nil || c.stall > annealStallMax {
			// Cold or stalled chain: rotate onto a fresh scalarisation
			// direction and restart — alternating between a perturbed
			// front member (polish) and a random point (exploration). The
			// archive keeps everything found so far.
			c.cur = nil
			c.stall = 0
			c.weights = weightVector(e.nextWeight%annealDirections, annealDirections)
			e.nextWeight++
			out = append(out, e.restartGenome())
			continue
		}
		out = append(out, e.novel(e.neighbor(c.cur.Genome)))
	}
	return out
}

// restartGenome picks where a restarted chain resumes: first from the
// unvisited neighbourhood of the current front (low-temperature
// exploitation — the staircase's missing steps are usually lattice
// neighbours of known ones), else every other restart perturbs a random
// front member, else it samples uniformly.
func (e *anneal) restartGenome() Genome {
	if gs := e.archive.frontNeighbors(e.space, &e.filter, 1); len(gs) > 0 {
		return gs[0]
	}
	if e.nextWeight%2 == 0 {
		if g, ok := e.archive.randomFrontGenome(e.rng); ok {
			return e.novel(e.neighbor(g))
		}
	}
	return e.novel(randomGenome(e.rng, e.space.Dims()))
}

// novel retries a proposal against the visit filter — widening
// perturbations, then uniform resamples — accepting a duplicate only
// when the neighbourhood is exhausted.
func (e *anneal) novel(g Genome) Genome {
	if e.filter.visit(e.space, g) {
		return g
	}
	for attempt := 0; attempt < 8; attempt++ {
		c := e.neighbor(g)
		if e.filter.visit(e.space, c) {
			return c
		}
	}
	for attempt := 0; attempt < 8; attempt++ {
		c := randomGenome(e.rng, e.space.Dims())
		if e.filter.visit(e.space, c) {
			return c
		}
	}
	return g
}

// started reports whether any chain has a current state or the archive
// has content (i.e. the seeding batch went out already).
func (e *anneal) started() bool {
	if e.archive.size() > 0 {
		return true
	}
	for _, c := range e.chains {
		if c.cur != nil {
			return true
		}
	}
	return false
}

// neighbor perturbs one or two axes of a genome by a geometric number of
// lattice levels, scaled by temperature so moves shrink as the system
// cools.
func (e *anneal) neighbor(g Genome) Genome {
	idx := e.space.Indices(g)
	moves := 1
	if e.rng.Float64() < 0.3 {
		moves = 2
	}
	for m := 0; m < moves; m++ {
		ax := e.rng.IntN(len(idx))
		levels := e.space.Axes[ax].Levels()
		if levels <= 1 {
			continue
		}
		// Geometric step: mostly ±1, occasionally further; temperature
		// stretches the tail.
		step := 1
		for e.rng.Float64() < 0.35*math.Min(e.temp, 1.5) && step < levels {
			step++
		}
		if e.rng.IntN(2) == 0 {
			step = -step
		}
		idx[ax] += step
		if idx[ax] < 0 {
			idx[ax] = 0
		}
		if idx[ax] >= levels {
			idx[ax] = levels - 1
		}
	}
	return e.space.GenomeAt(idx)
}

func (e *anneal) Observe(results []Result) {
	e.archive.add(results)
	lo, hi := e.archive.ranges()
	e.emu.Lock()
	defer e.emu.Unlock()
	// Assign results to chains round-robin in proposal order: Propose
	// emitted (at most) one genome per chain in chain order, except for
	// the seeding batch, which any chain may adopt.
	ci := 0
	for i := range results {
		r := &results[i]
		if r.DecodeErr != "" {
			continue
		}
		c := e.chains[ci%len(e.chains)]
		ci++
		e.proposed++
		if c.cur == nil {
			c.cur = r
			e.accepted++
			continue
		}
		cur := chebyshev(c.cur, c.weights, lo, hi)
		cand := chebyshev(r, c.weights, lo, hi)
		delta := cand - cur
		if delta <= 0 || e.rng.Float64() < math.Exp(-delta/math.Max(e.temp, annealMinTemp)) {
			c.cur = r
			e.accepted++
			if delta < 0 {
				c.stall = 0
			} else {
				c.stall++
			}
		} else {
			c.stall++
		}
	}
	// Adaptive cooling: geometric decay per batch, reheat when the
	// acceptance window collapses (the walk froze before the budget was
	// spent).
	e.temp *= annealCooling
	if e.temp < annealMinTemp {
		e.temp = annealMinTemp
	}
	if e.proposed >= 4*len(e.chains) {
		rate := float64(e.accepted) / float64(e.proposed)
		if rate < annealAcceptLow {
			e.temp = math.Min(e.temp*annealReheat, annealMaxTemp)
		}
		e.accepted, e.proposed = 0, 0
	}
}
