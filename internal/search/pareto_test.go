package search

import (
	"encoding/binary"
	"math"
	"slices"
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

func TestNondominatedRanksConstrained(t *testing.T) {
	rs := []Result{
		{Objs: [2]float64{1, 1}, Feasible: true},       // rank 0
		{Objs: [2]float64{2, 2}, Feasible: true},       // rank 1: dominated
		{Objs: [2]float64{0, 0}, Violation: 0.1},       // infeasible: behind all feasible
		{Objs: [2]float64{0, 0}, Violation: 0.5},       // more violating still
		{Objs: [2]float64{3, 0.5}, Feasible: true},     // rank 0: trades off
		{Objs: [2]float64{3, 0.5 + 1}, Feasible: true}, // rank 1
	}
	ranks := nondominatedRanks(rs)
	wants := []int{0, 1, 2, 3, 0, 1}
	for i, w := range wants {
		if ranks[i] != w {
			t.Errorf("rank[%d] = %d, want %d (all: %v)", i, ranks[i], w, ranks)
		}
	}
}

func TestCrowdingDistances(t *testing.T) {
	rs := []Result{
		{Objs: [2]float64{0, 4}},
		{Objs: [2]float64{1, 2}},
		{Objs: [2]float64{4, 0}},
	}
	d := crowdingDistances(rs, []int{0, 1, 2})
	if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
		t.Errorf("boundary points should be +Inf, got %v / %v", d[0], d[2])
	}
	if math.IsInf(d[1], 1) || d[1] <= 0 {
		t.Errorf("interior point distance = %v, want finite positive", d[1])
	}
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
