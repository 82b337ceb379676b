package search

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// rewalkFrontNeighbors is the reference for archive.frontNeighbors: it
// rescans every front member's whole ±1 neighbourhood on each call.
func rewalkFrontNeighbors(s Space, front []Result, f *visitFilter, limit int) []Genome {
	if limit <= 0 {
		return nil
	}
	out := make([]Genome, 0, limit)
	for _, r := range front {
		idx := s.Indices(r.Genome)
		for ax := range idx {
			for _, d := range []int{1, -1} {
				v := idx[ax] + d
				if v < 0 || v >= s.Axes[ax].Levels() {
					continue
				}
				n := append([]int(nil), idx...)
				n[ax] = v
				g := s.GenomeAt(n)
				if f.visit(s, g) {
					out = append(out, g)
					if len(out) == limit {
						return out
					}
				}
			}
		}
	}
	return out
}

// TestFrontNeighborsResumes drives the cursor scan and the rewalk
// reference through the same growing front (members inserted and
// evicted, ties kept) and the same outside visits, with limits from 0
// up, and requires identical proposals and identical filters after
// every call.
func TestFrontNeighborsResumes(t *testing.T) {
	space := Space{
		Name: "neighbours",
		Axes: []Axis{
			IntAxis(RoleSystolicDim, 8, 16, 32, 48, 64, 128),
			IntAxis(RoleLanes, 1, 2, 4, 8, 16),
			IntAxis(RoleL1KB, 64, 128, 256, 512),
			IntAxis(RoleL2MB, 16, 32, 64, 128),
		},
	}
	rng := rand.New(rand.NewPCG(7, 11))
	a := newArchive()
	cursor, rewalk := newVisitFilter(), newVisitFilter()
	var proposed, short int
	for round := 0; round < 400; round++ {
		batch := make([]Result, 1+rng.IntN(3))
		for i := range batch {
			// Objectives near an anti-diagonal keep a wide, tied front
			// whose members come and go as better ones arrive.
			g := randomGenome(rng, space.Dims())
			x := rng.IntN(16)
			batch[i] = Result{
				Genome:   g,
				Hash:     cursor.key(space, g), // one design per lattice point
				Objs:     [2]float64{float64(x), float64(15 - x + rng.IntN(3))},
				Feasible: rng.IntN(5) != 0,
			}
		}
		a.add(batch)
		if rng.IntN(2) == 0 { // an engine move outside the scan
			g := randomGenome(rng, space.Dims())
			cursor.visit(space, g)
			rewalk.visit(space, g)
		}
		limit := rng.IntN(4)
		got := a.frontNeighbors(space, &cursor, limit)
		want := rewalkFrontNeighbors(space, a.Front(), &rewalk, limit)
		if !slices.EqualFunc(got, want, slices.Equal[Genome]) {
			t.Fatalf("round %d, limit %d: cursor scan proposed %v, rewalk %v", round, limit, got, want)
		}
		if !maps.Equal(cursor.seen, rewalk.seen) {
			t.Fatalf("round %d: filters differ: %d points vs %d", round, len(cursor.seen), len(rewalk.seen))
		}
		proposed += len(got)
		if limit > 0 && len(got) < limit {
			short++
		}
	}
	// The walk must both propose and run dry, or one path went untested.
	if proposed == 0 || short == 0 {
		t.Fatalf("proposed %d neighbours with %d short calls; the test exercises too little", proposed, short)
	}
}
