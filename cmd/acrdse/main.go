// Command acrdse explores the sanction-constrained accelerator design
// space: it sweeps the paper's Table 3 grid under a TPP budget, evaluates
// every design's LLM-inference latency, die area, performance density and
// cost, and reports the best compliant designs.
//
// The default engine is the exhaustive grid sweep; the adaptive engines
// (nsga2, anneal, pattern) explore under a unique-evaluation budget and
// print the Pareto front they recover, which is the only way into spaces
// like the ~10^11-point jan2025 lattice.
//
//	acrdse -tpp 4800 -model gpt3 -rule oct2022 -top 5
//	acrdse -tpp 2400 -model llama3 -rule oct2023 -objective tbt
//	acrdse -engine nsga2 -budget 256 -seed 42            # adaptive Table 3 front
//	acrdse -engine anneal -space jan2025 -model llama3   # quantity-cap lattice
//	acrdse -tpp 4800 -trace sweep.json   # span dump for profiling ("-" = stderr)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/search"
)

func main() {
	var (
		tpp       = flag.Float64("tpp", 4800, "TPP budget the designs stay under")
		modelName = flag.String("model", "gpt3", "workload model: gpt3 or llama3")
		rule      = flag.String("rule", "oct2022", "compliance regime: none, oct2022, oct2023")
		objective = flag.String("objective", "ttft", "objective: ttft, tbt, ttftcost, tbtcost")
		top       = flag.Int("top", 5, "number of best designs to print")
		engine    = flag.String("engine", "grid", "search engine: grid (exhaustive sweep), nsga2, anneal, pattern")
		budget    = flag.Int("budget", 256, "adaptive engines: unique-evaluation budget")
		seed      = flag.Uint64("seed", 0, "adaptive engines: RNG seed (0 = derive deterministically from engine and space)")
		space     = flag.String("space", "table3", "design space: table3 (the paper's grid at -tpp) or jan2025 (quantity-cap lattice)")
		eval      = flag.String("eval", "scalar", "ignored, kept for compatibility: every sweep evaluates through the batch evaluator (accepts scalar or batch)")
		traceOut  = flag.String("trace", "", "dump the sweep's span trace as JSON to this file (\"-\" = stderr)")
	)
	flag.Parse()
	if err := run(options{
		tpp: *tpp, model: *modelName, rule: *rule, objective: *objective, top: *top,
		engine: *engine, budget: *budget, seed: *seed, space: *space, traceOut: *traceOut,
		eval: *eval,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "acrdse:", err)
		os.Exit(1)
	}
}

type options struct {
	tpp       float64
	model     string
	rule      string
	objective string
	top       int
	engine    string
	budget    int
	seed      uint64
	space     string
	traceOut  string
	eval      string
}

// dumpTrace writes the recorder's spans and stage histograms as JSON to
// path ("-" means stderr, keeping stdout clean for the design table).
func dumpTrace(rec *obs.Recorder, path string) error {
	if path == "-" {
		return rec.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pickModel(name string) (model.Model, error) {
	switch name {
	case "gpt3":
		return model.GPT3_175B(), nil
	case "llama3":
		return model.Llama3_8B(), nil
	default:
		return model.Model{}, fmt.Errorf("unknown model %q (gpt3, llama3)", name)
	}
}

func run(o options) error {
	validEngine := false
	for _, n := range search.Engines() {
		if n == o.engine {
			validEngine = true
		}
	}
	if !validEngine {
		return fmt.Errorf("unknown engine %q (valid: %s)", o.engine, strings.Join(search.Engines(), ", "))
	}
	if o.eval != "scalar" && o.eval != "batch" {
		return fmt.Errorf("unknown evaluator %q (scalar, batch)", o.eval)
	}
	keep, err := dse.Rule(o.rule)
	if err != nil {
		return err
	}
	metric, err := dse.Objective(o.objective)
	if err != nil {
		return err
	}
	m, err := pickModel(o.model)
	if err != nil {
		return err
	}
	w := model.PaperWorkload(m)
	if o.space == "table3" {
		// A -tpp budget whose core counts an int cannot hold fails here,
		// on every engine, before any work and before a trace exists.
		if _, err := table3(o).Designs(); err != nil {
			return err
		}
	}

	// Tracing is opt-in: without -trace the sweep runs on the obs nil
	// fast path and records nothing.
	ctx := context.Background()
	var rec *obs.Recorder
	if o.traceOut != "" {
		rec = obs.NewRecorder(0)
		ctx = obs.WithRecorder(ctx, rec)
	}

	// The exhaustive grid on the paper's Table 3 is the classic sweep with
	// rule filtering and a ranked top-N; everything else goes through the
	// adaptive runner and reports the recovered Pareto front.
	if o.engine != "grid" || o.space != "table3" {
		return runAdaptive(ctx, o, w, rec)
	}

	tpp, rule, top, traceOut := o.tpp, o.rule, o.top, o.traceOut
	points, err := dse.NewExplorer().RunContext(ctx, table3(o), w)
	if rec != nil {
		if derr := dumpTrace(rec, traceOut); derr != nil {
			return fmt.Errorf("writing trace: %w", derr)
		}
	}
	if err != nil {
		return err
	}
	admissible := dse.Filter(points, keep)
	fmt.Printf("%s, TPP < %.0f, %s: %d designs, %d admissible (manufacturable + compliant)\n\n",
		m.Name, tpp, rule, len(points), len(admissible))
	if len(admissible) == 0 {
		fmt.Println("no admissible designs — the rule excludes this entire TPP tier")
		return nil
	}

	sort.Slice(admissible, func(i, j int) bool { return metric(admissible[i]) < metric(admissible[j]) })
	if top > len(admissible) {
		top = len(admissible)
	}
	rows := [][]string{{"rank", "design", "TTFT (ms)", "TBT (ms)", "area mm²", "PD", "die $", "good die $"}}
	for i, p := range admissible[:top] {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), p.Config.Name,
			fmt.Sprintf("%.1f", p.TTFT()*1e3), fmt.Sprintf("%.4f", p.TBT()*1e3),
			fmt.Sprintf("%.0f", p.AreaMM2), fmt.Sprintf("%.2f", p.PD),
			fmt.Sprintf("%.0f", p.DieCostUSD), fmt.Sprintf("%.0f", p.GoodDieCostUSD),
		})
	}
	fmt.Print(plot.Table(rows))

	base, err := core.Baseline(w)
	if err != nil {
		return err
	}
	best := admissible[0]
	fmt.Printf("\nmodeled A100 baseline: TTFT %.1f ms, TBT %.4f ms\nbest design vs A100: TTFT %+.1f%%, TBT %+.1f%%\n",
		base.TTFTSeconds*1e3, base.TBTSeconds*1e3,
		(best.TTFT()/base.TTFTSeconds-1)*100, (best.TBT()/base.TBTSeconds-1)*100)
	return nil
}

// table3 returns the paper's Table 3 grid at the -tpp budget that a
// table3-space run covers: the exhaustive sweep under the October 2023
// rule spans that rule's three device bandwidths, every other run 600
// GB/s.
func table3(o options) dse.Grid {
	devBW := []float64{600}
	if o.engine == "grid" && o.rule == "oct2023" {
		devBW = []float64{500, 700, 900}
	}
	return dse.Table3(o.tpp, devBW)
}

// runAdaptive drives one of the pluggable search engines over the chosen
// space and prints the Pareto front it recovers within the budget.
func runAdaptive(ctx context.Context, o options, w model.Workload, rec *obs.Recorder) error {
	var prob search.Problem
	switch o.space {
	case "table3":
		prob = search.Problem{
			Space:      search.FromGrid(table3(o)),
			Workload:   w,
			Objectives: search.ObjectivesLatencyArea(),
		}
	case "jan2025":
		prob = search.Jan2025Problem(w)
	default:
		return fmt.Errorf("unknown space %q (table3, jan2025)", o.space)
	}
	if o.budget <= 0 {
		return fmt.Errorf("budget must be positive, got %d", o.budget)
	}

	out, err := core.AdaptiveSearchContext(ctx, nil, o.engine, prob, o.budget, o.seed)
	if rec != nil {
		if derr := dumpTrace(rec, o.traceOut); derr != nil {
			return fmt.Errorf("writing trace: %w", derr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("%s on %s (%s), seed %d: %d/%d evaluations over %d generations, front %d (minimising %s)\n\n",
		out.Engine, out.Space, w.Model.Name, out.Seed,
		out.Evaluations, out.Budget, out.Generations, len(out.Front),
		strings.Join(out.Objectives, ", "))
	// Extra context columns skip anything already among the objectives.
	hasObj := func(name string) bool {
		for _, n := range out.Objectives {
			if n == name {
				return true
			}
		}
		return false
	}
	header := append([]string{"rank", "design"}, out.Objectives...)
	if !hasObj("area_mm2") {
		header = append(header, "area mm²")
	}
	if !hasObj("tpp") {
		header = append(header, "TPP")
	}
	rows := [][]string{header}
	for i, r := range out.Front {
		row := []string{fmt.Sprintf("%d", i+1), r.Point.Config.Name}
		for _, v := range r.Objs {
			row = append(row, fmt.Sprintf("%.4g", v))
		}
		if !hasObj("area_mm2") {
			row = append(row, fmt.Sprintf("%.0f", r.Point.AreaMM2))
		}
		if !hasObj("tpp") {
			row = append(row, fmt.Sprintf("%.0f", r.Point.TPP))
		}
		rows = append(rows, row)
	}
	fmt.Print(plot.Table(rows))
	return nil
}
