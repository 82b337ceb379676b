package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
)

// rankAdmissible returns the indices of the points keep admits, by
// ascending metric, from sort.Slice over (value, index) keys built in
// input order: the ranking the DSE job gave before it folded windows,
// kept as the reference the job's fold is checked against.
func rankAdmissible(points []dse.Point, keep func(dse.Point) bool, metric func(dse.Point) float64) []int {
	type key struct {
		v float64
		i int
	}
	keys := make([]key, 0, len(points))
	for i := range points {
		if keep(points[i]) {
			keys = append(keys, key{metric(points[i]), i})
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].v < keys[b].v })
	ranked := make([]int, len(keys))
	for r, k := range keys {
		ranked[r] = k.i
	}
	return ranked
}

// foldReversed feeds points to a dseFold keeping the top designs, in
// windows of 32 summarised as a DSE job's stream hub summarises them,
// last window first, as concurrent sweep workers can finish them.
func foldReversed(points []dse.Point, top int, keep func(dse.Point) bool, metric func(dse.Point) float64) *dseFold {
	const width = 32
	f := newDSEFold(len(points), top)
	hub := newStreamHub(metric, dse.MetricArea, keep)
	ptrs := make([]*dse.Point, len(points))
	done := make([]bool, len(points))
	for i := range points {
		ptrs[i], done[i] = &points[i], true
	}
	for lo := (len(points) - 1) / width * width; lo >= 0; lo -= width {
		hi := min(lo+width, len(points))
		w := dse.Window{Lo: lo, Points: ptrs[lo:hi], Done: done[lo:hi]}
		f.visit(w, hub.summarise(nil, w))
	}
	return f
}

// indices returns the designs of ranked keys.
func indices(keys []rankKey) []int {
	out := make([]int, len(keys))
	for r, k := range keys {
		out[r] = k.i
	}
	return out
}

// summaries returns the top DSE summaries of points in ranked order.
func summaries(points []dse.Point, ranked []int, top int) []DesignSummary {
	var out []DesignSummary
	for r, i := range ranked[:min(top, len(ranked))] {
		p := &points[i]
		out = append(out, DesignSummary{
			Rank: r + 1, Config: p.Config.Name,
			TTFTMS: p.TTFT() * 1e3, TBTMS: p.TBT() * 1e3,
			AreaMM2: p.AreaMM2, PD: p.PD, DieCostUSD: p.DieCostUSD,
		})
	}
	return out
}

// TestRankAdmissibleMatchesPointSort pins the DSE job's ranking — the
// window fold, and rankAdmissible, the reference it replaced — to the
// ranking before either: dse.Filter, then sort.Slice over the admitted
// points, position by position on the Table 3 and Table 5 sweeps, for
// every objective and rule. Table 3 has hundreds of tied TTFT values, so
// the tie order is exercised, not just the sorted values.
func TestRankAdmissibleMatchesPointSort(t *testing.T) {
	ex := dse.NewExplorer()
	w := model.PaperWorkload(model.GPT3_175B())
	for _, g := range []dse.Grid{dse.Table3(4800, []float64{600}), dse.Table5()} {
		points, err := ex.Run(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, objective := range []string{"ttft", "tbt", "ttftcost", "tbtcost"} {
			for _, rule := range []string{"none", "oct2022", "oct2023"} {
				metric, err := dse.Objective(objective)
				if err != nil {
					t.Fatal(err)
				}
				keep, err := dse.Rule(rule)
				if err != nil {
					t.Fatal(err)
				}
				want := dse.Filter(points, keep)
				sort.Slice(want, func(i, j int) bool { return metric(want[i]) < metric(want[j]) })
				folded := indices(foldReversed(points, len(points), keep, metric).ranked())
				for _, c := range []struct {
					name   string
					ranked []int
				}{{"fold", folded}, {"rankAdmissible", rankAdmissible(points, keep, metric)}} {
					ranked := c.ranked
					if len(ranked) != len(want) {
						t.Fatalf("%s/%s/%s: %s ranked %d, want %d", g.Name, objective, rule, c.name, len(ranked), len(want))
					}
					for r, k := range ranked {
						if !reflect.DeepEqual(points[k], want[r]) {
							t.Fatalf("%s/%s/%s: %s rank %d is %s, want %s",
								g.Name, objective, rule, c.name, r+1, points[k].Config.Name, want[r].Config.Name)
						}
					}
				}
			}
		}
	}
}

// TestDSEJobMatchesCollectedRanking runs the DSE job's run function,
// stream hub attached as enqueue attaches it, on Table 3 and Table 5
// under every rule and objective, for the top 1, 5 and every design, at
// Parallelism 1 and at GOMAXPROCS. Its Designs, Admissible and Top must
// equal rankAdmissible over the points of a collected Explorer.Run, and
// so must the top of a fold fed the same points last window first.
func TestDSEJobMatchesCollectedRanking(t *testing.T) {
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(func() { s.Close() })
	w := model.PaperWorkload(model.GPT3_175B())
	for _, grid := range []struct {
		req DSERequest
		g   dse.Grid
	}{
		{DSERequest{Table3: &Table3Request{TPP: 4800}}, dse.Table3(4800, []float64{600})},
		{DSERequest{Table5: true}, dse.Table5()},
	} {
		points, err := dse.NewExplorer().Run(grid.g, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallelism := range []int{1, runtime.GOMAXPROCS(0)} {
			s.explorer.Parallelism = parallelism
			for _, rule := range []string{"none", "oct2022", "oct2023"} {
				for _, objective := range []string{"ttft", "tbt", "ttftcost", "tbtcost"} {
					for _, top := range []int{1, 5, len(points)} {
						name := fmt.Sprintf("%s/p%d/%s/%s/top%d", grid.g.Name, parallelism, rule, objective, top)
						req := grid.req
						req.Rule, req.Objective, req.Top = rule, objective, top
						js, err := s.parseDSE(req)
						if err != nil {
							t.Fatal(err)
						}
						out, err := js.run(context.Background())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got := out.(DSEResult)

						metric, _ := dse.Objective(objective)
						keep, _ := dse.Rule(rule)
						ranked := rankAdmissible(points, keep, metric)
						want := summaries(points, ranked, top)
						if got.Designs != len(points) || got.Admissible != len(ranked) {
							t.Fatalf("%s: designs %d, admissible %d; want %d, %d",
								name, got.Designs, got.Admissible, len(points), len(ranked))
						}
						if !reflect.DeepEqual(got.Top, want) {
							t.Fatalf("%s: top differs from the collected ranking\ngot  %+v\nwant %+v", name, got.Top, want)
						}
						// The same fold, its windows arriving last first,
						// prunes with a limit set from the grid's tail.
						f := foldReversed(points, top, keep, metric)
						if best, err := f.best(f.ranked()); err != nil || !reflect.DeepEqual(best, want) {
							t.Fatalf("%s: reversed windows rank %+v (%v), want %+v", name, best, err, want)
						}
					}
				}
			}
		}
	}
}
