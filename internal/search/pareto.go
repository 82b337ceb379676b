package search

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Dominates reports whether objective vector a Pareto-dominates b (both
// objectives minimised): a is no worse on either and strictly better on
// one.
func Dominates(a, b [2]float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// constrainedRanks returns each pooled result's non-dominated sorting
// rank (0 = best front) under Deb's constrained dominance: feasible
// beats infeasible, less-violating beats more-violating among
// infeasible, and Pareto dominance decides among feasible.
//
// Feasible results are ranked by Jensen's two-objective sort. Taken in
// lexicographic order of their vectors, a result joins the first front
// whose latest member does not dominate it, found by binary search:
// along any front in that order the second objective never rises, so
// its latest member dominates a later vector whenever any member does,
// and a result dominated from front k is dominated from every front
// before k. Infeasible results follow the last feasible rank in dense
// order of their violation, which orders them totally. Objectives and
// violations must be ordered values (no NaN).
func constrainedRanks(pool []*Result) []int {
	rank := make([]int, len(pool))
	var feasible, infeasible []int
	for i, r := range pool {
		if r.Feasible {
			feasible = append(feasible, i)
		} else {
			infeasible = append(infeasible, i)
		}
	}
	slices.SortFunc(feasible, func(a, b int) int {
		if c := cmp.Compare(pool[a].Objs[0], pool[b].Objs[0]); c != 0 {
			return c
		}
		return cmp.Compare(pool[a].Objs[1], pool[b].Objs[1])
	})
	var latest []int // latest[k] is the last result filed into front k
	for _, i := range feasible {
		k := sort.Search(len(latest), func(k int) bool {
			return !Dominates(pool[latest[k]].Objs, pool[i].Objs)
		})
		if k == len(latest) {
			latest = append(latest, i)
		} else {
			latest[k] = i
		}
		rank[i] = k
	}
	slices.SortFunc(infeasible, func(a, b int) int {
		return cmp.Compare(pool[a].Violation, pool[b].Violation)
	})
	r := len(latest) - 1
	for k, i := range infeasible {
		if k == 0 || pool[infeasible[k-1]].Violation < pool[i].Violation {
			r++
		}
		rank[i] = r
	}
	return rank
}

// crowding returns each pooled result's NSGA-II crowding distance
// within its rank's front. Boundary members get +Inf so they are always
// preferred, preserving objective-space spread. Ranks must be dense, as
// constrainedRanks returns them. Each front lists its members in pool
// order and is sorted stably per objective, so ties and the distance
// sums fall the same way on every run.
func crowding(pool []*Result, rank []int) []float64 {
	var fronts [][]int
	for i, r := range rank {
		for len(fronts) <= r {
			fronts = append(fronts, nil)
		}
		fronts[r] = append(fronts[r], i)
	}
	d := make([]float64, len(pool))
	order := make([]int, len(pool))
	for _, front := range fronts {
		order := order[:len(front)]
		for k := range 2 {
			copy(order, front)
			slices.SortStableFunc(order, func(a, b int) int {
				return cmp.Compare(pool[a].Objs[k], pool[b].Objs[k])
			})
			first, last := order[0], order[len(order)-1]
			span := pool[last].Objs[k] - pool[first].Objs[k]
			d[first] = math.Inf(1)
			d[last] = math.Inf(1)
			if span <= 0 {
				continue
			}
			for p := 1; p < len(order)-1; p++ {
				d[order[p]] += (pool[order[p+1]].Objs[k] - pool[order[p-1]].Objs[k]) / span
			}
		}
	}
	return d
}

// Hypervolume2D returns the area dominated by a two-objective front
// (both minimised) relative to a reference point; points not dominating
// the reference contribute nothing. A front-quality scalar for
// benchmarks on spaces too large for an exhaustive oracle.
func Hypervolume2D(front [][2]float64, refX, refY float64) float64 {
	pts := make([][2]float64, 0, len(front))
	for _, p := range front {
		if p[0] < refX && p[1] < refY {
			pts = append(pts, p)
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] < pts[j][0] {
			return true
		}
		if pts[i][0] > pts[j][0] {
			return false
		}
		return pts[i][1] < pts[j][1]
	})
	volume := 0.0
	bestY := refY
	for _, p := range pts {
		if p[1] < bestY {
			volume += (refX - p[0]) * (bestY - p[1])
			bestY = p[1]
		}
	}
	return volume
}
