package server

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/dse"
)

// rankKey is one admitted design's metric and its index in the grid.
type rankKey struct {
	v float64
	i int
}

// candidate is an admitted design that can still rank in a job's top:
// its key and its summary, Rank unset.
type candidate struct {
	key rankKey
	s   DesignSummary
}

// dseFold ranks a DSE job's sweep as its windows finish, keeping no
// points: a count of the evaluated designs, a rank key per admitted
// design, and the summaries of the admitted designs whose metric is at or
// below the running top-th smallest, ties included. The limit only
// falls, so every design the final ranking puts in the top was at or
// below it when it arrived and is still a candidate. It reads each
// design from its stream point (streamHub.summarise), whose Admissible
// flag and X coordinate are the job's rule and objective metric. Its
// visit method is safe for concurrent use.
type dseFold struct {
	top int

	mu sync.Mutex
	// keys holds one key per grid design at its index; i is -1 for a
	// design not admitted.
	keys []rankKey
	// designs counts the evaluated designs.
	designs int
	// cands are the candidates in arrival order; limit is the top-th
	// smallest metric among them once there are top (+Inf before), and
	// pruneAt the candidate count that triggers the next pruning. vals
	// is pruning's scratch.
	cands   []candidate
	limit   float64
	pruneAt int
	vals    []float64
}

func newDSEFold(designs, top int) *dseFold {
	f := &dseFold{
		top:     top,
		keys:    make([]rankKey, designs),
		limit:   math.Inf(1),
		pruneAt: max(2*top, 64),
	}
	for i := range f.keys {
		f.keys[i].i = -1
	}
	return f
}

// visit folds one finished window, given the stream points of its
// evaluated designs in order: it keys the window's admitted designs and
// adds the ones within the limit as candidates.
func (f *dseFold) visit(w dse.Window, sps []StreamPoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.designs += len(sps)
	j := 0
	for k, done := range w.Done {
		if !done {
			continue
		}
		sp := &sps[j]
		j++
		if !sp.Admissible {
			continue
		}
		key := rankKey{sp.X, w.Lo + k}
		f.keys[key.i] = key
		if key.v > f.limit { // false for NaN, which always stays
			continue
		}
		f.cands = append(f.cands, candidate{key: key, s: DesignSummary{
			Config:     sp.Config,
			TTFTMS:     sp.TTFTMS,
			TBTMS:      sp.TBTMS,
			AreaMM2:    sp.AreaMM2,
			PD:         sp.PD,
			DieCostUSD: sp.DieCostUSD,
		}})
	}
	if len(f.cands) > f.pruneAt {
		f.prune()
	}
}

// prune lowers the limit to the top-th smallest candidate metric and
// drops the candidates above it.
func (f *dseFold) prune() {
	f.vals = f.vals[:0]
	for _, c := range f.cands {
		if !math.IsNaN(c.key.v) {
			f.vals = append(f.vals, c.key.v)
		}
	}
	if len(f.vals) >= f.top {
		slices.Sort(f.vals)
		f.limit = f.vals[f.top-1]
		kept := f.cands[:0]
		for _, c := range f.cands {
			if !(c.key.v > f.limit) {
				kept = append(kept, c)
			}
		}
		f.cands = kept
	}
	f.pruneAt = max(2*len(f.cands), f.pruneAt)
}

// ranked returns the admitted designs' keys by ascending metric. It
// sorts the keys in input order with sort.Slice, whose permutation
// depends only on the length and the comparison outcomes, so every tie
// falls exactly as in a sort.Slice over the admitted points themselves.
// It compacts the fold's keys in place, so it is called once, after the
// sweep.
func (f *dseFold) ranked() []rankKey {
	keys := f.keys[:0]
	for _, k := range f.keys {
		if k.i >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].v < keys[b].v })
	return keys
}

// best returns the summaries of the first top ranked designs, ranked
// from 1. A NaN metric breaks the sort's ordering and can rank a design
// that was dropped as above the limit; that fails rather than guesses.
func (f *dseFold) best(ranked []rankKey) ([]DesignSummary, error) {
	slices.SortFunc(f.cands, func(a, b candidate) int { return cmp.Compare(a.key.i, b.key.i) })
	var out []DesignSummary
	for r, key := range ranked[:min(f.top, len(ranked))] {
		j, ok := slices.BinarySearchFunc(f.cands, key.i, func(c candidate, i int) int { return cmp.Compare(c.key.i, i) })
		if !ok {
			return nil, fmt.Errorf("rank %d: design %d was not kept (a NaN metric breaks the ranking)", r+1, key.i)
		}
		s := f.cands[j].s
		s.Rank = r + 1
		out = append(out, s)
	}
	return out, nil
}
