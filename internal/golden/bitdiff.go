package golden

import (
	"fmt"
	"math"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/perf"
	"repro/internal/sim"
)

// This file is the exact-match half of the differential harness: where the
// cross-model differentials (differential_test.go) compare independent
// implementations under a relative tolerance, the batch-vs-reference
// differential tolerates nothing — the batch evaluator and the per-design
// engine share every arithmetic expression, so any difference at all is a
// lowering bug. Comparisons go
// through math.Float64bits rather than the canonical JSON so a mismatch in
// the last ulp (which the 9-significant-digit fixtures would round away)
// still fails.

// ReferenceExplorer returns the single-design reference the exact
// differentials hold the default explorer to: no point store, and
// ir.Analytic as the explicit backend, so every design is timed by one
// uncached sim.SimulateGraphContext call instead of the batch evaluator.
func ReferenceExplorer() *dse.Explorer {
	ex := dse.NewExplorer()
	ex.Cache = nil
	ex.Sim.Backend = ir.Analytic{Engine: ex.Sim.Engine}
	return ex
}

// bitsDiffer reports whether two floats differ at the representation
// level. NaNs with equal payloads compare equal, unlike ==.
func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

// diffTimesExact appends a description per field of a and b that differs
// bit-for-bit, prefixed with label.
func diffTimesExact(diffs []string, label string, a, b perf.Time) []string {
	add := func(field string, x, y float64) {
		if bitsDiffer(x, y) {
			diffs = append(diffs, fmt.Sprintf("%s.%s: %v (%#x) != %v (%#x)",
				label, field, x, math.Float64bits(x), y, math.Float64bits(y)))
		}
	}
	if a.Name != b.Name {
		diffs = append(diffs, fmt.Sprintf("%s.Name: %q != %q", label, a.Name, b.Name))
	}
	add("Seconds", a.Seconds, b.Seconds)
	add("ComputeSeconds", a.ComputeSeconds, b.ComputeSeconds)
	add("DRAMSeconds", a.DRAMSeconds, b.DRAMSeconds)
	add("CommSeconds", a.CommSeconds, b.CommSeconds)
	add("FLOPs", a.FLOPs, b.FLOPs)
	add("DRAMBytes", a.DRAMBytes, b.DRAMBytes)
	if a.FeedLimited != b.FeedLimited {
		diffs = append(diffs, fmt.Sprintf("%s.FeedLimited: %v != %v", label, a.FeedLimited, b.FeedLimited))
	}
	return diffs
}

// DiffPointsExact compares two evaluated sweeps field by field under exact
// float bit equality (math.Float64bits) and returns a human-readable
// description of every difference, nil when the sweeps are bit-identical.
// It covers every per-design scalar of the simulated profile (TTFT, TBT,
// both MFUs) and the derived point fields (TPP, area, PD, compliance,
// cost) — the contract the batch evaluator must meet against the scalar
// path. Sweep points carry no per-operator Times; DiffResultsExact holds
// those to the same contract where they are computed.
func DiffPointsExact(a, b []dse.Point) []string {
	var diffs []string
	if len(a) != len(b) {
		return []string{fmt.Sprintf("point count: %d != %d", len(a), len(b))}
	}
	for i := range a {
		pa, pb := a[i], b[i]
		label := fmt.Sprintf("[%d %s]", i, pa.Config.Name)
		if pa.Config != pb.Config {
			diffs = append(diffs, fmt.Sprintf("%s.Config: %+v != %+v", label, pa.Config, pb.Config))
			continue
		}
		add := func(field string, x, y float64) {
			if bitsDiffer(x, y) {
				diffs = append(diffs, fmt.Sprintf("%s.%s: %v (%#x) != %v (%#x)",
					label, field, x, math.Float64bits(x), y, math.Float64bits(y)))
			}
		}
		diffs = diffScalarsExact(diffs, label, pa.Result, pb.Result)
		add("TPP", pa.TPP, pb.TPP)
		add("AreaMM2", pa.AreaMM2, pb.AreaMM2)
		add("PD", pa.PD, pb.PD)
		add("DieCostUSD", pa.DieCostUSD, pb.DieCostUSD)
		add("GoodDieCostUSD", pa.GoodDieCostUSD, pb.GoodDieCostUSD)
		if pa.FitsReticle != pb.FitsReticle {
			diffs = append(diffs, fmt.Sprintf("%s.FitsReticle: %v != %v", label, pa.FitsReticle, pb.FitsReticle))
		}
		if pa.Oct2023Class != pb.Oct2023Class {
			diffs = append(diffs, fmt.Sprintf("%s.Oct2023Class: %v != %v", label, pa.Oct2023Class, pb.Oct2023Class))
		}
	}
	return diffs
}

// diffScalarsExact appends a description per per-design scalar of a and b
// (TTFT, TBT and both MFUs) that differs bit-for-bit, prefixed with label.
func diffScalarsExact(diffs []string, label string, a, b sim.Result) []string {
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"TTFTSeconds", a.TTFTSeconds, b.TTFTSeconds},
		{"TBTSeconds", a.TBTSeconds, b.TBTSeconds},
		{"PrefillMFU", a.PrefillMFU, b.PrefillMFU},
		{"DecodeMFU", a.DecodeMFU, b.DecodeMFU},
	} {
		if bitsDiffer(f.x, f.y) {
			diffs = append(diffs, fmt.Sprintf("%s.%s: %v (%#x) != %v (%#x)",
				label, f.name, f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y)))
		}
	}
	return diffs
}

// DiffResultsExact compares two lists of simulated profiles, as
// sim.SimulateGraph and batch.Evaluator.Sweep return them, under exact
// float bit equality: the per-design scalars and every per-operator Time.
// It returns a description of every difference, nil when the profiles are
// bit-identical.
func DiffResultsExact(a, b []sim.Result) []string {
	var diffs []string
	if len(a) != len(b) {
		return []string{fmt.Sprintf("result count: %d != %d", len(a), len(b))}
	}
	for i := range a {
		ra, rb := a[i], b[i]
		label := fmt.Sprintf("[%d %s]", i, ra.Config.Name)
		if ra.Config != rb.Config {
			diffs = append(diffs, fmt.Sprintf("%s.Config: %+v != %+v", label, ra.Config, rb.Config))
			continue
		}
		diffs = diffScalarsExact(diffs, label, ra, rb)
		for _, ph := range []struct {
			name   string
			oa, ob []perf.Time
		}{
			{"prefill", ra.PrefillOps, rb.PrefillOps},
			{"decode", ra.DecodeOps, rb.DecodeOps},
		} {
			if len(ph.oa) != len(ph.ob) {
				diffs = append(diffs, fmt.Sprintf("%s %s op count: %d != %d", label, ph.name, len(ph.oa), len(ph.ob)))
				continue
			}
			for j := range ph.oa {
				diffs = diffTimesExact(diffs, fmt.Sprintf("%s %s[%d]", label, ph.name, j), ph.oa[j], ph.ob[j])
			}
		}
	}
	return diffs
}
