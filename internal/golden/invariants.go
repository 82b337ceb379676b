package golden

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/num"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/sim"
)

// This file is the model-invariant layer: metamorphic and consistency
// properties that must hold for EVERY evaluated design, not just the
// pinned fixtures. Where the golden fixtures catch "the numbers moved",
// these catch "the numbers stopped making physical sense" — and they keep
// holding across intentional recalibrations, so they are the half of the
// harness that never needs -update.
//
// The monotonicity directions are the paper's structural findings:
// memory bandwidth and cache capacity never hurt latency, while coarser
// compute granularity (bigger systolic arrays, more lanes per core) at a
// fixed TPP budget never helps prefill — the Table 3 result that
// fine-grained designs win under TPP caps.

// Violation is one failed invariant on one design.
type Violation struct {
	Invariant string
	Design    string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Design, v.Detail)
}

// monoEps absorbs float noise when comparing two designs' latencies: a
// knob is only flagged non-monotone when it moves latency the wrong way
// by more than this relative margin.
const monoEps = 1e-9

// Check runs every structural invariant over one evaluated sweep. The
// points must have been evaluated with the calibrated default models
// (dse.NewExplorer); the consistency checks recompute area, cost, PD and
// classification from the configs and compare.
func Check(points []dse.Point) []Violation {
	var out []Violation
	out = append(out, CheckBounds(points)...)
	out = append(out, CheckConsistency(points)...)
	out = append(out, CheckMonotonicity(points)...)
	out = append(out, CheckCostMonotonicity(points)...)
	out = append(out, CheckParetoFronts(points)...)
	return out
}

// CheckBounds verifies per-design ranges: positive latencies and MFU in
// (0, 1]. Sweep points carry no per-operator profiles; CheckProfiles
// holds the profiles to their invariants where they are computed.
func CheckBounds(points []dse.Point) []Violation {
	var out []Violation
	add := func(p dse.Point, detail string, args ...any) {
		out = append(out, Violation{"bounds", p.Config.Name, fmt.Sprintf(detail, args...)})
	}
	for _, p := range points {
		r := p.Result
		if !(r.TTFTSeconds > 0) || !(r.TBTSeconds > 0) {
			add(p, "non-positive latency: TTFT %g, TBT %g", r.TTFTSeconds, r.TBTSeconds)
		}
		if !(r.PrefillMFU > 0 && r.PrefillMFU <= 1) {
			add(p, "prefill MFU %g outside (0,1]", r.PrefillMFU)
		}
		if !(r.DecodeMFU > 0 && r.DecodeMFU <= 1) {
			add(p, "decode MFU %g outside (0,1]", r.DecodeMFU)
		}
	}
	return out
}

// CheckProfiles verifies per-operator profiles, as sim.Simulate and
// batch.Evaluator.Sweep return them: every phase has operators, each
// operator's time is no smaller than its bound components, and each phase
// latency is exactly the sum of its operators.
func CheckProfiles(results []sim.Result) []Violation {
	var out []Violation
	for _, r := range results {
		add := func(detail string, args ...any) {
			out = append(out, Violation{"profile", r.Config.Name, fmt.Sprintf(detail, args...)})
		}
		phases := []struct {
			name  string
			ops   []perf.Time
			total float64
		}{
			{"prefill", r.PrefillOps, r.TTFTSeconds},
			{"decode", r.DecodeOps, r.TBTSeconds},
		}
		for _, ph := range phases {
			if len(ph.ops) == 0 {
				add("%s profile has no operators", ph.name)
				continue
			}
			var sum float64
			for _, t := range ph.ops {
				if t.Seconds+1e-15 < math.Max(t.ComputeSeconds, t.DRAMSeconds) {
					add("%s op %s: total %g below its bound components", ph.name, t.Name, t.Seconds)
				}
				sum += t.Seconds
			}
			if num.RelErr(sum, ph.total) > 1e-12 {
				add("%s latency %g is not the sum of its operators %g", ph.name, ph.total, sum)
			}
		}
	}
	return out
}

// CheckConsistency verifies that the quantities carried on each point
// agree with independent recomputation from its config: TPP with the
// arch-derived FLOPs (via the policy conversion), area with the floorplan
// model, PD and the October 2023 class with the policy package, and die
// cost/yield with the calibrated 7 nm wafer.
func CheckConsistency(points []dse.Point) []Violation {
	var out []Violation
	add := func(p dse.Point, inv, detail string, args ...any) {
		out = append(out, Violation{inv, p.Config.Name, fmt.Sprintf(detail, args...)})
	}
	for _, p := range points {
		cfg := p.Config
		if num.RelErr(p.TPP, cfg.TPP()) > 1e-12 {
			add(p, "tpp", "point TPP %g != config TPP %g", p.TPP, cfg.TPP())
		}
		if want := policy.TPPFromTOPS(cfg.TensorTOPS(), arch.OperandBits); num.RelErr(p.TPP, want) > 1e-12 {
			add(p, "tpp", "TPP %g != policy conversion of arch TOPS %g", p.TPP, want)
		}
		if want := area.Estimate(cfg); num.RelErr(p.AreaMM2, want) > 1e-12 {
			add(p, "area", "area %g != floorplan estimate %g", p.AreaMM2, want)
		}
		if want := area.PerformanceDensity(p.TPP, p.AreaMM2, cfg.Process); num.RelErr(p.PD, want) > 1e-12 {
			add(p, "pd", "PD %g != TPP/area %g", p.PD, want)
		}
		if want := area.FitsReticle(p.AreaMM2); p.FitsReticle != want {
			add(p, "reticle", "FitsReticle %v inconsistent with area %g", p.FitsReticle, p.AreaMM2)
		}
		if want := policy.Oct2023(policy.Metrics{TPP: p.TPP, DeviceBWGBs: cfg.DeviceBWGBs,
			DieAreaMM2: p.AreaMM2, Segment: policy.DataCenter}); p.Oct2023Class != want {
			add(p, "class", "Oct2023 class %v, recomputed %v", p.Oct2023Class, want)
		}
		rep, err := cost.N7Wafer.Analyze(p.AreaMM2)
		if err != nil {
			// Unmanufacturable die (exceeds the wafer): the explorer leaves
			// costs zeroed, and such a design can never fit the reticle.
			if p.DieCostUSD != 0 || p.GoodDieCostUSD != 0 {
				add(p, "cost", "die does not fit a wafer (%v) yet carries cost %g", err, p.DieCostUSD)
			}
			if p.FitsReticle {
				add(p, "cost", "die exceeds the wafer yet FitsReticle is true")
			}
			continue
		}
		if !(rep.Yield > 0 && rep.Yield <= 1) {
			add(p, "cost", "yield %g outside (0,1]", rep.Yield)
		}
		if num.RelErr(p.DieCostUSD, rep.DieCostUSD) > 1e-12 {
			add(p, "cost", "die cost %g != wafer model %g", p.DieCostUSD, rep.DieCostUSD)
		}
		if p.GoodDieCostUSD < p.DieCostUSD {
			add(p, "cost", "good-die cost %g below die cost %g", p.GoodDieCostUSD, p.DieCostUSD)
		}
	}
	return out
}

// knobKey identifies a design by every sweep coordinate except the one
// knob under test (and the core count, which is derived from the TPP
// budget and so co-varies with granularity knobs).
type knobKey struct {
	dim, lanes, l1, l2 int
	hbm, dev           float64
}

func keyOf(c arch.Config) knobKey {
	return knobKey{c.SystolicDimX, c.LanesPerCore, c.L1KB, c.L2MB, c.HBMBandwidthGBs, c.DeviceBWGBs}
}

// CheckMonotonicity verifies the metamorphic latency properties across
// every same-except-one-knob pair in the sweep:
//
//   - HBM bandwidth ↑, L1 ↑, L2 ↑: TTFT and TBT never increase.
//   - Systolic dim ↑, lanes/core ↑ (at the grid's fixed TPP budget, core
//     count re-solved): TTFT never decreases.
func CheckMonotonicity(points []dse.Point) []Violation {
	idx := make(map[knobKey]dse.Point, len(points))
	for _, p := range points {
		idx[keyOf(p.Config)] = p
	}
	var out []Violation
	type knob struct {
		name string
		// vary returns candidate keys with this knob strictly increased.
		vary func(knobKey) []knobKey
		// ttftDir/tbtDir: -1 latency must not increase, +1 must not
		// decrease, 0 unconstrained.
		ttftDir, tbtDir int
	}
	keys := make([]knobKey, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return idx[keys[i]].Config.Name < idx[keys[j]].Config.Name })

	// Collect the distinct values of each knob so vary() can step to the
	// next larger swept value.
	var dims, lanes, l1s, l2s []int
	var hbms []float64
	seenI := map[string]map[int]bool{"dim": {}, "lanes": {}, "l1": {}, "l2": {}}
	seenF := map[float64]bool{}
	for _, k := range keys {
		if !seenI["dim"][k.dim] {
			seenI["dim"][k.dim] = true
			dims = append(dims, k.dim)
		}
		if !seenI["lanes"][k.lanes] {
			seenI["lanes"][k.lanes] = true
			lanes = append(lanes, k.lanes)
		}
		if !seenI["l1"][k.l1] {
			seenI["l1"][k.l1] = true
			l1s = append(l1s, k.l1)
		}
		if !seenI["l2"][k.l2] {
			seenI["l2"][k.l2] = true
			l2s = append(l2s, k.l2)
		}
		if !seenF[k.hbm] {
			seenF[k.hbm] = true
			hbms = append(hbms, k.hbm)
		}
	}
	sort.Ints(dims)
	sort.Ints(lanes)
	sort.Ints(l1s)
	sort.Ints(l2s)
	sort.Float64s(hbms)

	larger := func(sorted []int, v int) []int {
		i := sort.SearchInts(sorted, v+1)
		return sorted[i:]
	}
	knobs := []knob{
		{"hbm-bandwidth", func(k knobKey) []knobKey {
			var ks []knobKey
			i := sort.SearchFloat64s(hbms, k.hbm)
			for _, h := range hbms[i:] {
				if h > k.hbm {
					k2 := k
					k2.hbm = h
					ks = append(ks, k2)
				}
			}
			return ks
		}, -1, -1},
		{"l1-capacity", func(k knobKey) []knobKey {
			var ks []knobKey
			for _, v := range larger(l1s, k.l1) {
				k2 := k
				k2.l1 = v
				ks = append(ks, k2)
			}
			return ks
		}, -1, -1},
		{"l2-capacity", func(k knobKey) []knobKey {
			var ks []knobKey
			for _, v := range larger(l2s, k.l2) {
				k2 := k
				k2.l2 = v
				ks = append(ks, k2)
			}
			return ks
		}, -1, -1},
		{"systolic-dim", func(k knobKey) []knobKey {
			var ks []knobKey
			for _, v := range larger(dims, k.dim) {
				k2 := k
				k2.dim = v
				ks = append(ks, k2)
			}
			return ks
		}, +1, 0},
		{"lanes-per-core", func(k knobKey) []knobKey {
			var ks []knobKey
			for _, v := range larger(lanes, k.lanes) {
				k2 := k
				k2.lanes = v
				ks = append(ks, k2)
			}
			return ks
		}, +1, 0},
	}
	for _, k := range keys {
		p := idx[k]
		for _, kb := range knobs {
			for _, k2 := range kb.vary(k) {
				q, ok := idx[k2]
				if !ok {
					continue
				}
				if kb.ttftDir < 0 && q.TTFT() > p.TTFT()*(1+monoEps) {
					out = append(out, Violation{"monotone-" + kb.name, p.Config.Name,
						fmt.Sprintf("TTFT rose %g → %g against %s (vs %s)", p.TTFT(), q.TTFT(), kb.name, q.Config.Name)})
				}
				if kb.ttftDir > 0 && q.TTFT() < p.TTFT()*(1-monoEps) {
					out = append(out, Violation{"monotone-" + kb.name, p.Config.Name,
						fmt.Sprintf("TTFT fell %g → %g with coarser %s (vs %s) at fixed TPP", p.TTFT(), q.TTFT(), kb.name, q.Config.Name)})
				}
				if kb.tbtDir < 0 && q.TBT() > p.TBT()*(1+monoEps) {
					out = append(out, Violation{"monotone-" + kb.name, p.Config.Name,
						fmt.Sprintf("TBT rose %g → %g against %s (vs %s)", p.TBT(), q.TBT(), kb.name, q.Config.Name)})
				}
			}
		}
	}
	return out
}

// CheckCostMonotonicity verifies the wafer economics across the sweep:
// sorted by die area, per-die cost never decreases and yield never
// increases. Designs too large for a wafer carry zero cost and are
// excluded (their yield still participates — it only falls with area).
func CheckCostMonotonicity(points []dse.Point) []Violation {
	sorted := make([]dse.Point, 0, len(points))
	for _, p := range points {
		if p.DieCostUSD > 0 {
			sorted = append(sorted, p)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AreaMM2 < sorted[j].AreaMM2 })
	var out []Violation
	for i := 1; i < len(sorted); i++ {
		a, b := sorted[i-1], sorted[i]
		if b.DieCostUSD < a.DieCostUSD*(1-monoEps) {
			out = append(out, Violation{"cost-vs-area", b.Config.Name,
				fmt.Sprintf("die cost fell %g → %g while area grew %g → %g mm²",
					a.DieCostUSD, b.DieCostUSD, a.AreaMM2, b.AreaMM2)})
		}
		ya, yb := cost.N7Wafer.Yield(a.AreaMM2), cost.N7Wafer.Yield(b.AreaMM2)
		if yb > ya*(1+monoEps) {
			out = append(out, Violation{"yield-vs-area", b.Config.Name,
				fmt.Sprintf("yield rose %g → %g while area grew %g → %g mm²", ya, yb, a.AreaMM2, b.AreaMM2)})
		}
	}
	return out
}

// CheckParetoFronts verifies that dse.ParetoFront returns genuinely
// non-dominated sets on the metric pairs §4 plots: no point in the full
// sweep may dominate a front member, and the front must be sorted and
// strictly improving on the second axis.
func CheckParetoFronts(points []dse.Point) []Violation {
	var out []Violation
	pairs := []struct {
		name string
		x, y func(dse.Point) float64
	}{
		{"area-ttft", dse.MetricArea, dse.MetricTTFT},
		{"cost-tbt", func(p dse.Point) float64 { return p.DieCostUSD }, dse.MetricTBT},
	}
	for _, pair := range pairs {
		front := dse.ParetoFront(points, pair.x, pair.y)
		for i := 1; i < len(front); i++ {
			if pair.x(front[i]) < pair.x(front[i-1]) {
				out = append(out, Violation{"pareto-" + pair.name, front[i].Config.Name, "front not sorted on x"})
			}
			if pair.y(front[i]) >= pair.y(front[i-1]) {
				out = append(out, Violation{"pareto-" + pair.name, front[i].Config.Name, "front not strictly improving on y"})
			}
		}
		for _, f := range front {
			for _, p := range points {
				if pair.x(p) <= pair.x(f) && pair.y(p) <= pair.y(f) &&
					(pair.x(p) < pair.x(f) || pair.y(p) < pair.y(f)) {
					out = append(out, Violation{"pareto-" + pair.name, f.Config.Name,
						fmt.Sprintf("front member dominated by %s", p.Config.Name)})
					break
				}
			}
		}
	}
	return out
}
