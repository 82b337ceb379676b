package search

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Runner drives an Explorer against a Problem through the dse sweep
// path: every proposed genome snaps to a config, deduplicates against
// the run's archive by IR content hash, and only genuinely new designs
// are evaluated — one sweep per generation, through the point store and
// under dse.window spans, all in one dse.Session per run, so the run
// lowers its workload once and its generations share one batch
// evaluator. Revisited designs are fed back to the engine from the
// archive without spending budget.
type Runner struct {
	// Explorer is the evaluation backend; nil means a fresh
	// dse.NewExplorer (with its default point store).
	Explorer *dse.Explorer
	// Visit, when set, is each generation's sweep visitor: it receives
	// the finished windows of the generation's newly evaluated designs
	// (Window.Lo indexes those, not the proposals; archive revisits are
	// not swept), under the dse.Window contract, as they finish.
	Visit dse.Visitor
}

// Outcome summarises one search run.
type Outcome struct {
	Engine string
	Space  string
	Seed   uint64
	Budget int
	// Evaluations counts unique simulated designs — the budget meter.
	// Proposals counts every genome the engine emitted, including
	// archive revisits and undecodable points.
	Evaluations int
	Proposals   int
	Generations int
	// Front is the engine's final non-dominated feasible set.
	Front []Result
	// Objectives names the minimised axes, in Front[...].Objs order.
	Objectives []string
	// CacheHits and CacheMisses count the run's own point-store outcomes
	// (dse.Session.CacheCounts): evaluations the store served and ones
	// the run simulated.
	CacheHits, CacheMisses uint64
}

// FrontObjs returns the front's objective vectors (for hypervolume and
// reporting).
func (o Outcome) FrontObjs() [][2]float64 {
	objs := make([][2]float64, len(o.Front))
	for i, r := range o.Front {
		objs[i] = r.Objs
	}
	return objs
}

// Run explores prob with eng until budget unique evaluations have been
// spent or the engine stops proposing. Seed is recorded in the outcome
// only — engines are seeded at construction. On context cancellation
// the outcome built so far is returned alongside an error wrapping
// ctx.Err(), mirroring dse.EvaluateContext's partial-result semantics.
func (r *Runner) Run(ctx context.Context, prob Problem, eng Explorer, budget int, seed uint64) (out Outcome, err error) {
	out = Outcome{
		Engine: eng.Name(),
		Space:  prob.Space.Name,
		Seed:   seed,
		Budget: budget,
	}
	for _, o := range prob.Objectives {
		out.Objectives = append(out.Objectives, o.Name)
	}
	if err := validateProblem(prob); err != nil {
		return out, err
	}
	if budget <= 0 {
		return out, fmt.Errorf("search: budget must be positive, got %d", budget)
	}
	ex := r.Explorer
	if ex == nil {
		ex = dse.NewExplorer()
	}
	sess := ex.NewSession(prob.Workload)
	ctx, sp := obs.Start(ctx, "search.run")
	defer sp.End()
	sp.SetStr("engine", eng.Name())
	sp.SetStr("space", prob.Space.Name)
	sp.SetInt("budget", budget)
	defer func() {
		sp.SetInt("evaluations", out.Evaluations)
		sp.SetInt("generations", out.Generations)
		out.CacheHits, out.CacheMisses = sess.CacheCounts()
	}()

	// stall counts consecutive generations that evaluated nothing new;
	// an engine cycling through archived designs would otherwise loop
	// forever without consuming budget.
	const maxStall = 64
	stall := 0
	// The run's visit archive maps config hash to evaluated result, an
	// element of the generation's results slice, which nothing modifies
	// once observed: the workload is fixed for the run, so the config
	// hash alone identifies a design. revisits counts the proposals it
	// served.
	archive := make(map[uint64]*Result)
	revisits := 0
	defer func() { sp.SetInt("archive_revisits", revisits) }()
	for out.Evaluations < budget && stall < maxStall {
		if err := ctx.Err(); err != nil {
			out.Front = eng.Front()
			return out, fmt.Errorf("search: run aborted: %w", err)
		}
		gctx, gsp := obs.Start(ctx, "search.generation")
		gsp.SetInt("generation", out.Generations)
		remaining := budget - out.Evaluations
		genomes := eng.Propose(remaining)
		if len(genomes) == 0 {
			gsp.End()
			break
		}

		results := make([]Result, len(genomes))
		newCfgs := make([]arch.Config, 0, len(genomes))
		newIdx := make([]int, 0, len(genomes))
		// dupIdx holds batch-internal duplicates, filled after evaluation.
		var dupIdx []int
		batch := make(map[uint64]bool, len(genomes))
		for i, g := range genomes {
			if len(newCfgs) == remaining {
				// Budget exhausted mid-batch (an engine proposed more than
				// asked): drop the unprocessed tail so the budget is a hard
				// cap, not a suggestion.
				genomes = genomes[:i]
				results = results[:i]
				break
			}
			cfg, err := prob.Space.Decode(g)
			if err != nil {
				results[i] = Result{Genome: g, Violation: 1e6, DecodeErr: err.Error()}
				continue
			}
			h := ir.ConfigHash(cfg)
			if prev, ok := archive[h]; ok {
				results[i] = *prev
				results[i].Genome, results[i].Revisited = g, true
				revisits++
				continue
			}
			results[i] = Result{Genome: g, Hash: h, Revisited: batch[h]}
			if batch[h] {
				dupIdx = append(dupIdx, i)
				continue
			}
			batch[h] = true
			newCfgs = append(newCfgs, cfg)
			newIdx = append(newIdx, i)
		}
		out.Proposals += len(genomes)

		if len(newCfgs) > 0 {
			// The sweep writes each new design's point straight into its
			// result; objectives, feasibility and the archive follow in
			// proposal order once the whole generation is in.
			ectx, esp := obs.Start(gctx, "search.evaluate")
			err := sess.Sweep(ectx, newCfgs, func(k int) *dse.Point { return &results[newIdx[k]].Point }, r.Visit)
			esp.SetInt("designs", len(newCfgs))
			esp.End()
			if err != nil {
				gsp.End()
				out.Front = eng.Front()
				return out, fmt.Errorf("search: generation %d: %w", out.Generations, err)
			}
			for _, i := range newIdx {
				res := &results[i]
				res.Objs = prob.objectives(res.Point)
				res.Feasible, res.Violation = prob.feasible(res.Point)
				archive[res.Hash] = res
				out.Evaluations++
			}
			// Fill batch-internal duplicates from their now-evaluated
			// originals.
			for _, i := range dupIdx {
				g := results[i].Genome
				results[i] = *archive[results[i].Hash]
				results[i].Genome, results[i].Revisited = g, true
				revisits++
			}
		}
		eng.Observe(results)
		gsp.SetInt("evaluations", len(newCfgs))
		gsp.End()
		out.Generations++
		if len(newCfgs) == 0 {
			stall++
		} else {
			stall = 0
		}
	}
	out.Front = eng.Front()
	return out, nil
}
