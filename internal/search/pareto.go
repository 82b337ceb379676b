package search

import (
	"math"
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

// betterConstrained is Deb's constrained-dominance relation between two
// results: feasible beats infeasible, less-violating beats
// more-violating among infeasible, and Pareto dominance decides among
// feasible.
func betterConstrained(a, b *Result) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if !a.Feasible {
		return a.Violation < b.Violation
	}
	return Dominates(a.Objs, b.Objs)
}

// nondominatedRanks assigns each result its non-dominated sorting rank
// (0 = best front) under constrained dominance.
func nondominatedRanks(rs []Result) []int {
	n := len(rs)
	rank := make([]int, n)
	dominated := make([][]int, n) // i dominates dominated[i]
	count := make([]int, n)       // how many dominate i
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if betterConstrained(&rs[i], &rs[j]) {
				dominated[i] = append(dominated[i], j)
			} else if betterConstrained(&rs[j], &rs[i]) {
				count[i]++
			}
		}
	}
	current := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if count[i] == 0 {
			rank[i] = 0
			current = append(current, i)
		}
	}
	for r := 0; len(current) > 0; r++ {
		next := current[:0:0]
		for _, i := range current {
			for _, j := range dominated[i] {
				count[j]--
				if count[j] == 0 {
					rank[j] = r + 1
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return rank
}

// crowdingDistances returns NSGA-II crowding distances for the results
// at the given indices (one front). Boundary points get +Inf so they are
// always preferred, preserving objective-space spread.
func crowdingDistances(rs []Result, front []int) map[int]float64 {
	d := make(map[int]float64, len(front))
	for _, i := range front {
		d[i] = 0
	}
	if len(front) == 0 {
		return d
	}
	order := make([]int, len(front))
	for k := range 2 {
		copy(order, front)
		sort.SliceStable(order, func(a, b int) bool {
			return rs[order[a]].Objs[k] < rs[order[b]].Objs[k]
		})
		lo := rs[order[0]].Objs[k]
		hi := rs[order[len(order)-1]].Objs[k]
		span := hi - lo
		d[order[0]] = math.Inf(1)
		d[order[len(order)-1]] = math.Inf(1)
		if span <= 0 {
			continue
		}
		for p := 1; p < len(order)-1; p++ {
			d[order[p]] += (rs[order[p+1]].Objs[k] - rs[order[p-1]].Objs[k]) / span
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
