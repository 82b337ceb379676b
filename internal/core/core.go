// Package core is the library's top-level API, tying the substrates
// together into the paper's primary contribution: evaluating and optimising
// LLM-inference chip architectures under Advanced Computing Rule sanctions,
// and deriving architecture-first policy indicators.
//
// Typical use:
//
//	report, err := core.Evaluate(arch.A100(), model.PaperWorkload(model.GPT3_175B()))
//	best, err := core.OptimizeCompliant(core.RuleOct2022, 4800, workload)
//	ind, err := core.Indicators(workload, core.ParamMemoryBW)
//
// Everything is deterministic and pure computation; no external inputs.
package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DesignReport is the full evaluation of one device design on one workload:
// performance, silicon, economics, and regulatory status.
type DesignReport struct {
	Config   arch.Config
	Workload model.Workload

	// Per-layer latencies and utilisation (§3.1 metrics).
	TTFTSeconds float64
	TBTSeconds  float64
	PrefillMFU  float64
	DecodeMFU   float64

	// Silicon.
	Area        area.Breakdown
	AreaMM2     float64
	FitsReticle bool
	PD          float64

	// Economics (7 nm wafer model).
	DieCostUSD     float64
	GoodDieCostUSD float64
	Yield          float64

	// Power at representative operating points (§4.4).
	PrefillPowerW float64
	DecodePowerW  float64

	// Regulatory status.
	Oct2022           policy.Classification
	Oct2023DataCenter policy.Classification
	Oct2023Consumer   policy.Classification
}

// Evaluate produces a DesignReport for a configuration and workload.
func Evaluate(cfg arch.Config, w model.Workload) (DesignReport, error) {
	g, err := ir.Lower(w)
	if err != nil {
		return DesignReport{}, err
	}
	r, err := sim.New().SimulateGraph(cfg, g)
	if err != nil {
		return DesignReport{}, err
	}
	breakdown := area.DefaultModel.Estimate(cfg)
	a := breakdown.Total()
	tpp := cfg.TPP()
	rep := DesignReport{
		Config:      cfg,
		Workload:    w,
		TTFTSeconds: r.TTFTSeconds,
		TBTSeconds:  r.TBTSeconds,
		PrefillMFU:  r.PrefillMFU,
		DecodeMFU:   r.DecodeMFU,
		Area:        breakdown,
		AreaMM2:     a,
		FitsReticle: area.FitsReticle(a),
		PD:          area.PerformanceDensity(tpp, a, cfg.Process),
	}
	m := policy.Metrics{TPP: tpp, DeviceBWGBs: cfg.DeviceBWGBs, DieAreaMM2: a}
	rep.Oct2022 = policy.Oct2022(m)
	m.Segment = policy.DataCenter
	rep.Oct2023DataCenter = policy.Oct2023(m)
	m.Segment = policy.NonDataCenter
	rep.Oct2023Consumer = policy.Oct2023(m)
	if wr, err := cost.N7Wafer.Analyze(a); err == nil {
		rep.DieCostUSD = wr.DieCostUSD
		rep.GoodDieCostUSD = wr.GoodDieUSD
		rep.Yield = wr.Yield
	}
	if pb, err := power.Estimate(cfg, power.PrefillActivity()); err == nil {
		rep.PrefillPowerW = pb.Total()
	}
	if db, err := power.Estimate(cfg, power.DecodeActivity()); err == nil {
		rep.DecodePowerW = db.Total()
	}
	return rep, nil
}

// Baseline returns the modeled-A100 report for a workload, with the die
// area pinned to the physical GA100 die as the paper does.
func Baseline(w model.Workload) (DesignReport, error) {
	rep, err := Evaluate(arch.A100(), w)
	if err != nil {
		return DesignReport{}, err
	}
	rep.AreaMM2 = arch.GA100DieAreaMM2
	rep.PD = area.PerformanceDensity(rep.Config.TPP(), rep.AreaMM2, rep.Config.Process)
	if wr, err := cost.N7Wafer.Analyze(rep.AreaMM2); err == nil {
		rep.DieCostUSD = wr.DieCostUSD
		rep.GoodDieCostUSD = wr.GoodDieUSD
		rep.Yield = wr.Yield
	}
	return rep, nil
}

// Rule identifies the sanction regime an optimisation must respect.
type Rule int

const (
	// RuleNone imposes no export-control constraint.
	RuleNone Rule = iota
	// RuleOct2022 requires escaping the October 2022 rule (TPP < 4800 or
	// device BW < 600 GB/s).
	RuleOct2022
	// RuleOct2023 requires a data-center design to be entirely outside the
	// October 2023 rule (not even NAC-eligible), the strict criterion of
	// §4.3.
	RuleOct2023
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleNone:
		return "unconstrained"
	case RuleOct2022:
		return "October 2022 ACR"
	case RuleOct2023:
		return "October 2023 ACR"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Objective selects what OptimizeCompliant minimises.
type Objective int

const (
	// MinTTFT minimises prefill latency.
	MinTTFT Objective = iota
	// MinTBT minimises decode latency.
	MinTBT
	// MinTTFTCost and MinTBTCost minimise the latency × die-cost products.
	MinTTFTCost
	MinTBTCost
)

func (o Objective) metric() (func(dse.Point) float64, error) {
	switch o {
	case MinTTFT:
		return dse.MetricTTFT, nil
	case MinTBT:
		return dse.MetricTBT, nil
	case MinTTFTCost:
		return dse.MetricTTFTCost, nil
	case MinTBTCost:
		return dse.MetricTBTCost, nil
	default:
		return nil, fmt.Errorf("core: unknown objective %d", int(o))
	}
}

// Optimum is the result of a constrained design search.
type Optimum struct {
	Report DesignReport
	// Explored and Admissible count the searched and rule-satisfying
	// design points.
	Explored   int
	Admissible int
	// TTFTvsA100 and TBTvsA100 are the optimum's latencies relative to the
	// modeled A100 (negative = faster).
	TTFTvsA100 float64
	TBTvsA100  float64
}

// OptimizeCompliant sweeps the paper's Table 3 design space under a TPP
// budget and returns the best manufacturable design satisfying the rule.
// Device bandwidth candidates follow the regime: 600 GB/s (the October 2022
// threshold) under RuleOct2022 and the paper's {500, 700, 900} set under
// RuleOct2023, where device bandwidth is unregulated.
func OptimizeCompliant(r Rule, tppBudget float64, w model.Workload, obj Objective) (Optimum, error) {
	return OptimizeCompliantContext(context.Background(), nil, r, tppBudget, w, obj)
}

// OptimizeCompliantContext is OptimizeCompliant with cancellation and an
// optional shared explorer: a cancelled ctx aborts the sweep early, and a
// non-nil ex reuses its result cache across calls (the acrserve job queue
// passes its long-lived explorer here). A nil ex uses a fresh default
// explorer.
func OptimizeCompliantContext(ctx context.Context, ex *dse.Explorer, r Rule, tppBudget float64, w model.Workload, obj Objective) (Optimum, error) {
	metric, err := obj.metric()
	if err != nil {
		return Optimum{}, err
	}
	devBW := []float64{600}
	if r == RuleOct2023 {
		devBW = []float64{500, 700, 900}
	}
	if ex == nil {
		ex = dse.NewExplorer()
	}
	points, err := ex.RunContext(ctx, dse.Table3(tppBudget, devBW), w)
	if err != nil {
		return Optimum{}, err
	}
	admissible := dse.Filter(points, func(p dse.Point) bool {
		if !p.FitsReticle {
			return false
		}
		switch r {
		case RuleOct2022:
			return !policy.Oct2022(policy.Metrics{
				TPP: p.TPP, DeviceBWGBs: p.Config.DeviceBWGBs,
			}).Restricted()
		case RuleOct2023:
			return p.Oct2023Class == policy.NotApplicable
		default:
			return true
		}
	})
	best, err := dse.BestWithTieBreak(admissible, metric, dse.MetricArea, 0.005)
	if err != nil {
		return Optimum{}, fmt.Errorf("core: no admissible design under %v at TPP %.0f: %w",
			r, tppBudget, err)
	}
	rep, err := Evaluate(best.Config, w)
	if err != nil {
		return Optimum{}, err
	}
	a100, err := Baseline(w)
	if err != nil {
		return Optimum{}, err
	}
	return Optimum{
		Report:     rep,
		Explored:   len(points),
		Admissible: len(admissible),
		TTFTvsA100: rep.TTFTSeconds/a100.TTFTSeconds - 1,
		TBTvsA100:  rep.TBTSeconds/a100.TBTSeconds - 1,
	}, nil
}

// Param identifies an architectural parameter for indicator analysis.
type Param int

const (
	// ParamLanes fixes lanes per core.
	ParamLanes Param = iota
	// ParamL1 fixes the per-core local buffer.
	ParamL1
	// ParamL2 fixes the global buffer.
	ParamL2
	// ParamMemoryBW fixes the HBM bandwidth.
	ParamMemoryBW
	// ParamDeviceBW fixes the interconnect bandwidth.
	ParamDeviceBW
)

// String names the parameter.
func (p Param) String() string {
	switch p {
	case ParamLanes:
		return "lanes per core"
	case ParamL1:
		return "L1 per core"
	case ParamL2:
		return "L2"
	case ParamMemoryBW:
		return "memory bandwidth"
	case ParamDeviceBW:
		return "device bandwidth"
	default:
		return fmt.Sprintf("Param(%d)", int(p))
	}
}

func (p Param) value(c arch.Config) float64 {
	switch p {
	case ParamLanes:
		return float64(c.LanesPerCore)
	case ParamL1:
		return float64(c.L1KB)
	case ParamL2:
		return float64(c.L2MB)
	case ParamMemoryBW:
		return c.HBMBandwidthGBs
	case ParamDeviceBW:
		return c.DeviceBWGBs
	default:
		return 0
	}
}

// Indicator quantifies how strongly fixing one architectural parameter
// predicts workload latency across a TPP-constrained design space — the
// §5.3 architecture-first performance indicator.
type Indicator struct {
	Param    Param
	Workload model.Workload
	// TTFTNarrowing and TBTNarrowing are the best (maximum over parameter
	// values) distribution-narrowing ratios.
	TTFTNarrowing float64
	TBTNarrowing  float64
	// PerValue carries the per-fixed-value groups.
	TTFTGroups []stats.Group
	TBTGroups  []stats.Group
}

// Indicators runs the paper's Table 3 sweep at TPP 4800 and computes the
// narrowing power of the given parameter for both inference phases.
func Indicators(w model.Workload, p Param) (Indicator, error) {
	return IndicatorsContext(context.Background(), nil, w, p)
}

// IndicatorsContext is Indicators with cancellation and an optional shared
// explorer (nil means a fresh default one).
func IndicatorsContext(ctx context.Context, ex *dse.Explorer, w model.Workload, p Param) (Indicator, error) {
	if ex == nil {
		ex = dse.NewExplorer()
	}
	points, err := ex.RunContext(ctx, dse.Table3(4800, []float64{500, 700, 900}), w)
	if err != nil {
		return Indicator{}, err
	}
	points = dse.Filter(points, func(pt dse.Point) bool { return pt.FitsReticle })

	ttftAll := make([]float64, 0, len(points))
	tbtAll := make([]float64, 0, len(points))
	ttftBy := map[string][]float64{}
	tbtBy := map[string][]float64{}
	for _, pt := range points {
		ttftAll = append(ttftAll, pt.TTFT())
		tbtAll = append(tbtAll, pt.TBT())
		key := fmt.Sprintf("%s=%g", p, p.value(pt.Config))
		ttftBy[key] = append(ttftBy[key], pt.TTFT())
		tbtBy[key] = append(tbtBy[key], pt.TBT())
	}
	ind := Indicator{Param: p, Workload: w}
	_, ind.TTFTGroups = stats.GroupBy(ttftAll, ttftBy)
	_, ind.TBTGroups = stats.GroupBy(tbtAll, tbtBy)
	for _, g := range ind.TTFTGroups {
		if g.Narrowing > ind.TTFTNarrowing {
			ind.TTFTNarrowing = g.Narrowing
		}
	}
	for _, g := range ind.TBTGroups {
		if g.Narrowing > ind.TBTNarrowing {
			ind.TBTNarrowing = g.Narrowing
		}
	}
	return ind, nil
}

// ClassifyDesign returns the regulatory status of an arbitrary design under
// every rule this library implements, using the modeled die area.
func ClassifyDesign(cfg arch.Config) (oct2022, oct2023DC, oct2023NDC policy.Classification, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, 0, err
	}
	a := area.Estimate(cfg)
	m := policy.Metrics{TPP: cfg.TPP(), DeviceBWGBs: cfg.DeviceBWGBs, DieAreaMM2: a}
	oct2022 = policy.Oct2022(m)
	m.Segment = policy.DataCenter
	oct2023DC = policy.Oct2023(m)
	m.Segment = policy.NonDataCenter
	oct2023NDC = policy.Oct2023(m)
	return oct2022, oct2023DC, oct2023NDC, nil
}
