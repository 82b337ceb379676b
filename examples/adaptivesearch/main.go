// Adaptive search: recover the paper's latency/area Pareto front with a
// fraction of the exhaustive sweep's evaluations, then take the engines
// somewhere a sweep cannot go — the ~10^11-point jan2025 quantity-cap
// lattice, where the question is how fast a device can decode per unit
// of the national TPP allocation it consumes.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/search"
)

func main() {
	w := model.PaperWorkload(model.Llama3_8B())

	// Part 1: the Table 3 grid at TPP 4800 holds 512 designs. The
	// exhaustive front is known, so budgeted engines can be scored
	// against it: here each engine gets 128 evaluations (25%).
	fmt.Println("Table 3 @ TPP 4800, budget 128/512 evaluations (minimise TTFT and die area):")
	for _, engine := range search.Engines() {
		if engine == "grid" {
			continue // the grid engine IS the exhaustive sweep
		}
		out, err := core.SearchCompliant(engine, 4800, w, 128, 1)
		if err != nil {
			log.Fatal(err)
		}
		hv := search.Hypervolume2D(out.FrontObjs(), 100, 900)
		fmt.Printf("  %-8s %3d evals, %2d generations, front %2d, hypervolume %.0f\n",
			engine, out.Evaluations, out.Generations, len(out.Front), hv)
	}

	// Part 2: the jan2025 space sweeps everything the paper's grids fix
	// (process node, TPP budget, HBM stacks, finely quantised bandwidths)
	// — ~10^11 lattice points, six orders of magnitude past exhaustive
	// reach. Feasibility requires the model shard and full-context KV to
	// fit in HBM, so the stack-count axis binds.
	prob := search.Jan2025Problem(w)
	fmt.Printf("\njan2025 quantity-cap lattice (%.2g designs), budget 192 (minimise TBT and TPP drawn):\n",
		prob.Space.Size())
	out, err := core.AdaptiveSearch("nsga2", prob, 192, 1)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range out.Front {
		fmt.Printf("  %2d. TBT %.3f ms at TPP %6.0f  (%.0f mm², %d GB HBM)  %s\n",
			i+1, r.Point.TBT()*1e3, r.Point.TPP, r.Point.AreaMM2,
			r.Point.Config.HBMCapacityGB, r.Point.Config.Name)
	}

	// The same search through a shared explorer costs nothing the second
	// time: every design comes back from the explorer's point store.
	ctx := context.Background()
	ex := dse.NewExplorer()
	if _, err := core.AdaptiveSearchContext(ctx, ex, "nsga2", prob, 192, 1); err != nil {
		log.Fatal(err)
	}
	before := ex.Cache.Stats()
	if _, err := core.AdaptiveSearchContext(ctx, ex, "nsga2", prob, 192, 1); err != nil {
		log.Fatal(err)
	}
	after := ex.Cache.Stats()
	fmt.Printf("\nre-run through a shared explorer: %d cache hits, %d new simulations\n",
		after.Hits-before.Hits, after.Misses-before.Misses)
}
