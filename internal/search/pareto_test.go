package search

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dse"
	"repro/internal/sim"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b [2]float64
		want bool
	}{
		{[2]float64{1, 1}, [2]float64{2, 2}, true},
		{[2]float64{1, 2}, [2]float64{2, 1}, false},
		{[2]float64{1, 1}, [2]float64{1, 1}, false}, // equal: no strict improvement
		{[2]float64{1, 1}, [2]float64{1, 2}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// frontOf adds one feasible result per vector to a fresh archive, with
// hashes in input order, and returns the archive's front.
func frontOf(objs [][2]float64) []Result {
	a := newArchive()
	rs := make([]Result, len(objs))
	for i, o := range objs {
		rs[i] = Result{Hash: uint64(i), Objs: o, Feasible: true}
	}
	a.add(rs)
	return a.Front()
}

func TestArchiveFront(t *testing.T) {
	objs := [][2]float64{
		{1, 5}, // front
		{2, 4}, // front
		{2, 5}, // dominated by {2,4} and {1,5}
		{5, 1}, // front
		{1, 5}, // duplicate of the first: both survive
	}
	front := frontOf(objs)
	got := make([]uint64, len(front))
	for i, r := range front {
		got[i] = r.Hash
	}
	// Ordered by objective vector, then hash.
	if want := []uint64{0, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("front = %v, want %v", got, want)
	}
}

// pointers returns the results' addresses, the pool form the engines
// rank.
func pointers(rs []Result) []*Result {
	pool := make([]*Result, len(rs))
	for i := range rs {
		pool[i] = &rs[i]
	}
	return pool
}

func TestNondominatedRanksConstrained(t *testing.T) {
	rs := []Result{
		{Objs: [2]float64{1, 1}, Feasible: true},       // rank 0
		{Objs: [2]float64{2, 2}, Feasible: true},       // rank 1: dominated
		{Objs: [2]float64{0, 0}, Violation: 0.1},       // infeasible: behind all feasible
		{Objs: [2]float64{0, 0}, Violation: 0.5},       // more violating still
		{Objs: [2]float64{3, 0.5}, Feasible: true},     // rank 0: trades off
		{Objs: [2]float64{3, 0.5 + 1}, Feasible: true}, // rank 1
	}
	wants := []int{0, 1, 2, 3, 0, 1}
	for name, ranks := range map[string][]int{
		"constrainedRanks":  constrainedRanks(pointers(rs)),
		"nondominatedRanks": nondominatedRanks(rs),
	} {
		if !slices.Equal(ranks, wants) {
			t.Errorf("%s = %v, want %v", name, ranks, wants)
		}
	}
}

func TestCrowdingDistances(t *testing.T) {
	rs := []Result{
		{Objs: [2]float64{0, 4}},
		{Objs: [2]float64{1, 2}},
		{Objs: [2]float64{4, 0}},
	}
	ref := crowdingDistances(rs, []int{0, 1, 2})
	got := crowding(pointers(rs), []int{0, 0, 0})
	for name, d := range map[string][]float64{"crowding": got, "crowdingDistances": {ref[0], ref[1], ref[2]}} {
		if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
			t.Errorf("%s: boundary points should be +Inf, got %v / %v", name, d[0], d[2])
		}
		if math.IsInf(d[1], 1) || d[1] <= 0 {
			t.Errorf("%s: interior point distance = %v, want finite positive", name, d[1])
		}
	}
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

// nondominatedRanks is the O(N²) reference for constrainedRanks: it
// peels fronts off the full pairwise constrained-dominance relation.
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

// crowdingDistances is the map-based reference for crowding: NSGA-II
// crowding distances for the results at the given indices (one front).
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

// decodePool turns fuzz bytes into a pool of results, four bytes each:
// objectives on an 8×8 lattice (ties and duplicate vectors are common),
// a feasibility flag (one in three infeasible), and one of four
// violation levels (equal violations are common).
func decodePool(data []byte) []Result {
	const maxResults = 40
	var rs []Result
	for len(data) >= 4 && len(rs) < maxResults {
		r := Result{
			Hash:     uint64(len(rs)),
			Objs:     [2]float64{float64(data[0] % 8), float64(data[1] % 8)},
			Feasible: data[2]%3 != 0,
		}
		if !r.Feasible {
			r.Violation = float64(data[3]%4+1) / 4
		}
		rs = append(rs, r)
		data = data[4:]
	}
	return rs
}

// FuzzConstrainedRanks checks the sort-based ranking and the slice-based
// crowding distances against the O(N²) and map-based references, bit
// for bit: environmental selection sorts on both, so any difference
// would change which parents survive.
func FuzzConstrainedRanks(f *testing.F) {
	f.Add([]byte{1, 2, 1, 0, 2, 1, 1, 0, 1, 2, 1, 0, 3, 3, 1, 0}) // a duplicate vector
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 2, 5, 5, 0, 1})             // all infeasible, two equal violations
	f.Add([]byte{0, 6, 1, 0, 1, 5, 1, 0, 2, 4, 1, 0, 3, 3, 1, 0, 4, 4, 0, 3, 5, 5, 0, 3})
	// (3,0) joins front 1 although front 2 already exists.
	f.Add([]byte{0, 0, 1, 0, 1, 1, 1, 0, 2, 2, 1, 0, 3, 0, 1, 0})
	// One front of 16 members, every vector twice: past insertion-sort
	// sizes, so only a stable per-objective sort keeps the duplicates'
	// order.
	diag := []byte{}
	for _, x := range []byte{3, 0, 6, 5, 1, 4, 2, 7, 7, 2, 4, 1, 5, 6, 0, 3} {
		diag = append(diag, x, 7-x, 1, 0)
	}
	f.Add(diag)
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := decodePool(data)
		ranks := constrainedRanks(pointers(rs))
		if want := nondominatedRanks(rs); !slices.Equal(ranks, want) {
			t.Fatalf("ranks = %v, want %v (pool %+v)", ranks, want, rs)
		}
		got := crowding(pointers(rs), ranks)
		byRank := map[int][]int{}
		for i, r := range ranks {
			byRank[r] = append(byRank[r], i)
		}
		for r, members := range byRank {
			for i, want := range crowdingDistances(rs, members) {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("rank %d: crowding[%d] = %v, want %v (pool %+v)", r, i, got[i], want, rs)
				}
			}
		}
	})
}

func TestHypervolume2D(t *testing.T) {
	front := [][2]float64{{1, 3}, {2, 2}, {3, 1}}
	// Against ref (4,4): staircase area = 3+2+... compute: sorted by x:
	// (1,3): (4-1)*(4-3)=3; (2,2): (4-2)*(3-2)=2; (3,1): (4-3)*(2-1)=1.
	if got, want := Hypervolume2D(front, 4, 4), 6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("hypervolume = %g, want %g", got, want)
	}
	// Points outside the reference contribute nothing.
	if got := Hypervolume2D([][2]float64{{5, 5}}, 4, 4); got != 0 {
		t.Errorf("out-of-reference point contributed %g", got)
	}
	// Dominated points add nothing.
	with := append(front, [2]float64{2.5, 2.5})
	if got := Hypervolume2D(with, 4, 4); math.Abs(got-6.0) > 1e-12 {
		t.Errorf("dominated point changed hypervolume to %g", got)
	}
}

// decodeObjs turns fuzz bytes into a set of finite 2-objective vectors
// on a small integer lattice (so exact ties and dominance chains are
// common, the interesting cases for the laws below).
func decodeObjs(data []byte) [][2]float64 {
	const maxPoints = 24
	objs := make([][2]float64, 0, maxPoints)
	for len(data) >= 4 && len(objs) < maxPoints {
		x := float64(binary.LittleEndian.Uint16(data[0:2]) % 19)
		y := float64(binary.LittleEndian.Uint16(data[2:4]) % 19)
		objs = append(objs, [2]float64{x, y})
		data = data[4:]
	}
	return objs
}

// FuzzParetoDominance fuzzes the dominance laws the engines rely on
// (antisymmetry, transitivity along chains) and checks the front the
// archive keeps as results are added against a brute-force scan and
// against dse.ParetoFront on identical point sets.
func FuzzParetoDominance(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 2, 0, 1, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 0, 1, 0, 5, 0, 3, 0, 3, 0, 2, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := decodeObjs(data)
		for i := range objs {
			for j := range objs {
				dij := Dominates(objs[i], objs[j])
				dji := Dominates(objs[j], objs[i])
				if dij && dji {
					t.Fatalf("antisymmetry violated: %v and %v dominate each other", objs[i], objs[j])
				}
				if !dij {
					continue
				}
				for k := range objs {
					if Dominates(objs[j], objs[k]) && !Dominates(objs[i], objs[k]) {
						t.Fatalf("transitivity violated: %v > %v > %v but not %v > %v",
							objs[i], objs[j], objs[k], objs[i], objs[k])
					}
				}
			}
		}
		if len(objs) == 0 {
			return
		}
		// The archive's front holds exactly the vectors no other vector
		// dominates, every tie included, ordered by vector then hash.
		front := frontOf(objs)
		var want []uint64
		for i, a := range objs {
			dominated := false
			for _, b := range objs {
				dominated = dominated || Dominates(b, a)
			}
			if !dominated {
				want = append(want, uint64(i))
			}
		}
		if len(front) != len(want) {
			t.Fatalf("archive front has %d results, want %d (points %v)", len(front), len(want), objs)
		}
		for k, r := range front {
			if k > 0 && !frontLess(&front[k-1], &r) {
				t.Fatalf("front out of order at %d: %v", k, front)
			}
			dominated := false
			for _, b := range objs {
				dominated = dominated || Dominates(b, r.Objs)
			}
			if dominated {
				t.Fatalf("archive front keeps dominated %v (points %v)", r.Objs, objs)
			}
		}
		// Differential check: the same point set through dse.ParetoFront
		// must keep exactly the same set of distinct objective vectors.
		pts := make([]dse.Point, len(objs))
		for i, o := range objs {
			pts[i] = dse.Point{Result: sim.Result{TTFTSeconds: o[0]}, AreaMM2: o[1]}
		}
		dseFront := dse.ParetoFront(pts, dse.MetricTTFT, dse.MetricArea)
		dseSet := make(map[[2]float64]bool)
		for _, p := range dseFront {
			dseSet[[2]float64{p.TTFT(), p.AreaMM2}] = true
		}
		searchSet := make(map[[2]float64]bool)
		for _, r := range front {
			searchSet[r.Objs] = true
		}
		if len(dseSet) != len(searchSet) {
			t.Fatalf("front disagreement on %v:\n dse: %v\n search: %v", objs, dseSet, searchSet)
		}
		for v := range dseSet {
			if !searchSet[v] {
				t.Fatalf("vector %v on the dse front but not the search front (points %v)", v, objs)
			}
		}
	})
}
