package server

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
)

// TestRankAdmissibleMatchesPointSort pins rankAdmissible to the ranking
// it replaced — dse.Filter, then sort.Slice over the admitted points —
// position by position on the Table 3 and Table 5 sweeps, for every
// objective and rule. Table 3 has hundreds of tied TTFT values, so the
// tie order is exercised, not just the sorted values.
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
				req := DSERequest{Objective: objective, Rule: rule}
				metric, err := req.metric()
				if err != nil {
					t.Fatal(err)
				}
				keep, err := req.admissible()
				if err != nil {
					t.Fatal(err)
				}
				want := dse.Filter(points, keep)
				sort.Slice(want, func(i, j int) bool { return metric(want[i]) < metric(want[j]) })
				ranked := rankAdmissible(points, keep, metric)
				if len(ranked) != len(want) {
					t.Fatalf("%s/%s/%s: %d ranked, want %d", g.Name, objective, rule, len(ranked), len(want))
				}
				for r, k := range ranked {
					if !reflect.DeepEqual(points[k], want[r]) {
						t.Fatalf("%s/%s/%s: rank %d is %s, want %s",
							g.Name, objective, rule, r+1, points[k].Config.Name, want[r].Config.Name)
					}
				}
			}
		}
	}
}
