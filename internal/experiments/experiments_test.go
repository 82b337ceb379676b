package experiments

import (
	"io"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/policy"
)

// lab is shared across tests: its explorer's point store serves repeated
// sweeps, so the whole file runs in a few hundred milliseconds.
var lab = NewLab()

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig2", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "table1", "table4", "headline",
		"externality", "hbmrule",
		// extension analyses
		"chipletescape", "gaming", "metricshistory", "binning", "parallelism",
		"serving", "powerdraw", "quantization", "ablation", "whatif", "audit",
		"fabcapacity", "hbmsupply", "quota", "escapeperf", "tornado", "crossval",
		"robustness"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want ≥ %d", len(All()), len(want))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID should error")
	}
}

func TestEveryExperimentRunsAndProducesOutput(t *testing.T) {
	for _, e := range All() {
		var sb strings.Builder
		if err := e.Run(lab, &sb); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(sb.String()) < 40 {
			t.Errorf("%s: suspiciously short output (%d bytes)", e.ID, len(sb.String()))
		}
	}
}

func TestEveryFigureCSVEmitsData(t *testing.T) {
	for _, e := range All() {
		if e.CSV == nil {
			continue
		}
		var sb strings.Builder
		if err := e.CSV(lab, &sb); err != nil {
			t.Errorf("%s CSV: %v", e.ID, err)
			continue
		}
		if !strings.Contains(sb.String(), ",") || strings.Count(sb.String(), "\n") < 5 {
			t.Errorf("%s CSV: no data rows", e.ID)
		}
	}
}

func TestFig1aClassCounts(t *testing.T) {
	s := Fig1a()
	counts := map[string]int{}
	for _, p := range s.Points {
		counts[p.Class]++
	}
	// Under October 2022 only flagship interconnected parts are caught:
	// A100, H100, MI250X, MI300X in the catalogue.
	if got := counts[policy.LicenseRequired.String()]; got != 4 {
		t.Errorf("Oct 2022 license-required devices = %d, want 4", got)
	}
}

func TestFig5MatchesPaperSensitivities(t *testing.T) {
	r, err := lab.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if r.TTFTDropTPP4000To5000 < 0.10 || r.TTFTDropTPP4000To5000 > 0.22 {
		t.Errorf("TPP 4000→5000 TTFT drop = %.1f%%, paper 16.2%%", r.TTFTDropTPP4000To5000*100)
	}
	if r.TBTDropBW600To1000 < 0 || r.TBTDropBW600To1000 > 0.01 {
		t.Errorf("device BW 600→1000 TBT drop = %.2f%%, paper 0.27%%", r.TBTDropBW600To1000*100)
	}
	// Exactly one non-compliant point: the A100 reference.
	nonCompliant := 0
	for _, p := range r.Points {
		if !p.Compliant {
			nonCompliant++
		}
	}
	if nonCompliant != 1 {
		t.Errorf("non-compliant sweep points = %d, want 1 (the A100)", nonCompliant)
	}
}

func TestFig6HeadlineGains(t *testing.T) {
	// §4.2: compliant optima beat the A100 on TTFT slightly (paper 1.2% /
	// 4%) and on TBT substantially (paper 27% / 14.2%).
	for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
		r, err := lab.Fig6(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 512 {
			t.Errorf("%s: Fig 6 has %d designs, want 512", m.Name, len(r.Points))
		}
		if r.TTFTGain <= 0 || r.TTFTGain > 0.20 {
			t.Errorf("%s: TTFT gain = %.1f%%, want small positive (paper 1.2–4%%)",
				m.Name, r.TTFTGain*100)
		}
		if r.TBTGain < 0.10 || r.TBTGain > 0.45 {
			t.Errorf("%s: TBT gain = %.1f%%, want 10–45%% (paper 14.2–27%%)",
				m.Name, r.TBTGain*100)
		}
		if !r.Optimum.FitsReticle {
			t.Errorf("%s: optimum must be manufacturable", m.Name)
		}
		if r.Optimum.Config.HBMBandwidthGBs != 3200 {
			t.Errorf("%s: optimum should max memory bandwidth, got %.0f",
				m.Name, r.Optimum.Config.HBMBandwidthGBs)
		}
	}
}

func TestFig7MatchesPaperStructure(t *testing.T) {
	for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
		r, err := lab.Fig7(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, tpp := range []int{1600, 2400, 4800} {
			if got := len(r.PointsByTPP[tpp]); got != 1536 {
				t.Errorf("%s @ %d TPP: %d designs, want 1536", m.Name, tpp, got)
			}
		}
		// §4.3: every 4800-TPP design is invalid (TPP ≥ threshold needs
		// TPP < 4800 — these sit just below, but PD ≥ 5.92 or the NAC tier
		// catches all of them, or the reticle does).
		if got := r.CompliantCounts[4800]; got != 0 {
			t.Errorf("%s: compliant 4800-TPP designs = %d, want 0", m.Name, got)
		}
		// Only a sliver of 2400-TPP designs are valid (paper: 56 of 1536).
		if got := r.CompliantCounts[2400]; got < 20 || got > 200 {
			t.Errorf("%s: compliant 2400-TPP designs = %d, want ≈ 56", m.Name, got)
		}
		// Fastest compliant 2400-TPP TTFT is far slower than the A100
		// (paper: +78.8% GPT-3, +54.6% Llama 3)...
		if got := r.FastestTTFTSlowdown[2400]; got < 0.3 || got > 1.5 {
			t.Errorf("%s: fastest 2400-TPP TTFT %.0f%% slower, want 30–150%%", m.Name, got*100)
		}
		// ...while decoding still beats it (paper: 26.1% / 12.8% faster).
		if got := r.FastestTBTGain[2400]; got < 0.08 || got > 0.45 {
			t.Errorf("%s: fastest 2400-TPP TBT %.0f%% faster, want 8–45%%", m.Name, got*100)
		}
		// Lower TPP tiers can never prefill faster than higher tiers.
		if r.FastestTTFTSlowdown[1600] <= r.FastestTTFTSlowdown[2400] {
			t.Errorf("%s: 1600-TPP designs should be slower than 2400-TPP", m.Name)
		}
	}
}

func TestTable4MatchesPaperEconomics(t *testing.T) {
	r, err := lab.Table4()
	if err != nil {
		t.Fatal(err)
	}
	// The PD floor forces the compliant design close to the 750 mm²
	// boundary the paper derives for ~2400 TPP (its design: 753 mm²).
	if r.Compliant.AreaMM2 < 700 || r.Compliant.AreaMM2 > 860 {
		t.Errorf("compliant area = %.0f mm², want near 750", r.Compliant.AreaMM2)
	}
	if r.Compliant.PD >= policy.Oct2023PDHighFloor {
		t.Errorf("compliant design PD %.2f must sit below the 3.2 floor", r.Compliant.PD)
	}
	// Similar performance, more silicon, higher cost.
	ttftGap := r.Compliant.TTFT()/r.NonCompliant.TTFT() - 1
	if ttftGap < -0.02 || ttftGap > 0.02 {
		t.Errorf("designs should perform within 2%%: gap %.1f%%", ttftGap*100)
	}
	if r.Compliant.AreaMM2 <= r.NonCompliant.AreaMM2 {
		t.Error("compliant design should be larger")
	}
	if r.Compliant.GoodDieCostUSD <= r.NonCompliant.GoodDieCostUSD {
		t.Error("compliant design should cost more per good die")
	}
	if r.CompliantSRAMMB <= r.NonCompliantSRAMMB {
		t.Error("compliant design should carry more SRAM")
	}
}

func TestFig8CostRatios(t *testing.T) {
	// §4.4: compliant latency-cost minima are ≈ 2.6–2.9× worse.
	for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
		ttftR, tbtR, err := lab.CostRatios(m)
		if err != nil {
			t.Fatal(err)
		}
		if ttftR < 1.5 || ttftR > 4.5 {
			t.Errorf("%s TTFT cost ratio = %.2f, paper 2.72/2.58", m.Name, ttftR)
		}
		if tbtR < 1.5 || tbtR > 4.5 {
			t.Errorf("%s TBT cost ratio = %.2f, paper 2.64/2.91", m.Name, tbtR)
		}
	}
}

func TestFig9MatchesPaperCounts(t *testing.T) {
	r := Fig9()
	if len(r.FalseDC) != 4 {
		t.Errorf("false DC = %v, want 4 devices", r.FalseDC)
	}
	if len(r.FalseNDC) != 7 {
		t.Errorf("false NDC = %v, want 7 devices", r.FalseNDC)
	}
	if r.Consistent+len(r.FalseDC)+len(r.FalseNDC) != len(r.Scatter.Points) {
		t.Error("consistency counts do not partition the catalogue")
	}
}

func TestFig10ArchitecturalRuleBeatsMarketing(t *testing.T) {
	m := Fig9()
	a := Fig10()
	marketing := len(m.FalseDC) + len(m.FalseNDC)
	architectural := len(a.FalseDC) + len(a.FalseNDC)
	if architectural >= marketing {
		t.Errorf("architectural mismatches (%d) should beat marketing (%d)",
			architectural, marketing)
	}
	// The paper's two canonical architecturally-consumer DC parts.
	for _, want := range []string{"L4", "L2"} {
		found := false
		for _, n := range a.FalseDC {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("architectural false DC missing %s", want)
		}
	}
}

func TestFig11MemoryBandwidthPinsTBT(t *testing.T) {
	for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
		r, err := lab.Fig11(m)
		if err != nil {
			t.Fatal(err)
		}
		bw, ok := GroupByName(r.TBTGroups, "2.8 TB/s M. BW")
		if !ok {
			t.Fatal("missing memory-bandwidth group")
		}
		if bw.Narrowing < 8 {
			t.Errorf("%s: fixed mem BW narrows TBT %.1fx, want ≥ 8x (paper 20.6/10.7)",
				m.Name, bw.Narrowing)
		}
		dev, ok := GroupByName(r.TBTGroups, "500 GB/s D. BW")
		if !ok {
			t.Fatal("missing device-bandwidth group")
		}
		if dev.Narrowing > 2 {
			t.Errorf("%s: fixed device BW should narrow TBT negligibly, got %.1fx",
				m.Name, dev.Narrowing)
		}
		// Every fixed-parameter TTFT group narrows at least as much as
		// device bandwidth narrows TBT — and 1-lane narrows TTFT most.
		lane, _ := GroupByName(r.TTFTGroups, "1 Lane")
		if lane.Narrowing < 1.2 {
			t.Errorf("%s: 1-lane TTFT narrowing %.1fx, want > 1.2x (paper 5/3.3)",
				m.Name, lane.Narrowing)
		}
	}
}

func TestFig12RestrictedGridMatchesPaper(t *testing.T) {
	for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
		r, err := lab.Fig12(m)
		if err != nil {
			t.Fatal(err)
		}
		// 32 KB L1 slows median TTFT dramatically vs the A100 (paper
		// +58.7%/+52.6%).
		l1, ok := GroupByName(r.TTFTGroups, "32 KB L1")
		if !ok {
			t.Fatal("missing L1 group")
		}
		shift, err := lab.MedianShiftVsA100(m, l1, true)
		if err != nil {
			t.Fatal(err)
		}
		if shift < 0.3 {
			t.Errorf("%s: 32 KB L1 median TTFT %.0f%% slower than A100, want ≥ 30%%",
				m.Name, shift*100)
		}
		// 0.8 TB/s memory slows median TBT dramatically (paper +110%/+58.7%)
		// and narrows the distribution by an order of magnitude (41.8/42.4x).
		bw, ok := GroupByName(r.TBTGroups, "0.8 TB/s M. BW")
		if !ok {
			t.Fatal("missing memory BW group")
		}
		tbtShift, err := lab.MedianShiftVsA100(m, bw, false)
		if err != nil {
			t.Fatal(err)
		}
		if tbtShift < 0.4 {
			t.Errorf("%s: 0.8 TB/s median TBT %.0f%% slower than A100, want ≥ 40%%",
				m.Name, tbtShift*100)
		}
		if bw.Narrowing < 10 {
			t.Errorf("%s: 0.8 TB/s TBT narrowing %.1fx, want ≥ 10x (paper 41.8/42.4)",
				m.Name, bw.Narrowing)
		}
	}
}

func TestExternalityScopedPolicyStrictlyBetter(t *testing.T) {
	r, err := Externality()
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.ScopedDWL >= r.Report.BroadDWL {
		t.Error("scoped policy must have strictly lower deadweight loss")
	}
	if r.Report.NegativeExternality <= 0 {
		t.Error("broad policy must create a gaming-segment externality")
	}
	// The RTX 4090 is the canonical restricted gaming device (§2.2), and a
	// matmul+memory architecture-first rule lets a gaming design escape.
	foundRTX4090 := false
	for _, n := range r.RestrictedGamingDevices {
		if n == "RTX 4090" {
			foundRTX4090 = true
		}
	}
	if !foundRTX4090 {
		t.Errorf("restricted gaming devices %v should include the RTX 4090",
			r.RestrictedGamingDevices)
	}
	if len(r.SafeHarborEscapes) == 0 {
		t.Error("architecture-first rule should free at least one gaming device")
	}
}

// TestLabRepeatedSweepServedByStore checks that a Lab's explorer store
// serves a repeated sweep: the second Fig 6 run of a model probes all
// 512 of its designs and simulates none.
func TestLabRepeatedSweepServedByStore(t *testing.T) {
	l := NewLab()
	if _, err := l.Fig6(model.Llama3_8B()); err != nil {
		t.Fatal(err)
	}
	before := l.Explorer.Cache.Stats()
	if _, err := l.Fig6(model.Llama3_8B()); err != nil {
		t.Fatal(err)
	}
	after := l.Explorer.Cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 512 || misses != 0 {
		t.Errorf("repeated Fig6 sweep: %d store hits, %d misses; want 512 and 0", hits, misses)
	}
}

func TestWorkloadsSetting(t *testing.T) {
	ws := Workloads()
	if len(ws) != 2 {
		t.Fatalf("want 2 workloads, got %d", len(ws))
	}
	for _, w := range ws {
		if w.Batch != 32 || w.InputLen != 2048 || w.OutputLen != 1024 {
			t.Errorf("%s workload deviates from §3.2: %+v", w.Model.Name, w)
		}
	}
}

// discard is a sink ensuring render paths execute fully under error checks.
var _ io.Writer = io.Discard
