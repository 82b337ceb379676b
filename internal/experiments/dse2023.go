package experiments

import (
	"fmt"
	"io"

	"repro/internal/area"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/plot"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Oct2023DeviceBWs is the device-bandwidth set the paper sweeps for the
// October 2023 DSE (the rule no longer regulates device bandwidth).
var Oct2023DeviceBWs = []float64{500, 700, 900}

// Oct2023TPPTargets are the rule's threshold TPP levels swept in Fig 7.
var Oct2023TPPTargets = []float64{1600, 2400, 4800}

// Fig7Result is the §4.3 October 2023 DSE for one model.
type Fig7Result struct {
	Model model.Model
	A100  sim.Result
	// PointsByTPP maps each TPP target to its 1536 evaluated designs.
	PointsByTPP map[int][]dse.Point
	// CompliantCounts counts strictly compliant designs (unregulated and
	// reticle-fitting) per TPP target; the paper reports only 56 of the
	// 2400-TPP designs are valid and none of the 4800-TPP designs.
	CompliantCounts map[int]int
	// FastestTTFTvsA100 and FastestTBTvsA100 give, per TPP target, the
	// fastest compliant design's latency relative to the A100 (positive =
	// slower for TTFT; positive = faster for TBT, matching the paper's
	// phrasing).
	FastestTTFTSlowdown map[int]float64
	FastestTBTGain      map[int]float64
}

// Fig7 runs the three-TPP October 2023 DSE for one model.
func (l *Lab) Fig7(m model.Model) (Fig7Result, error) {
	w := model.PaperWorkload(m)
	a100, err := l.A100Baseline(w)
	if err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{
		Model:               m,
		A100:                a100,
		PointsByTPP:         map[int][]dse.Point{},
		CompliantCounts:     map[int]int{},
		FastestTTFTSlowdown: map[int]float64{},
		FastestTBTGain:      map[int]float64{},
	}
	for _, tpp := range Oct2023TPPTargets {
		pts, err := l.Explorer.Run(dse.Table3(tpp, Oct2023DeviceBWs), w)
		if err != nil {
			return Fig7Result{}, err
		}
		key := int(tpp)
		res.PointsByTPP[key] = pts
		compliant := dse.Filter(pts, dse.Point.Compliant)
		res.CompliantCounts[key] = len(compliant)
		if len(compliant) == 0 {
			continue
		}
		bestTTFT, err := dse.Best(compliant, dse.MetricTTFT)
		if err != nil {
			return Fig7Result{}, err
		}
		bestTBT, err := dse.Best(compliant, dse.MetricTBT)
		if err != nil {
			return Fig7Result{}, err
		}
		res.FastestTTFTSlowdown[key] = bestTTFT.TTFT()/a100.TTFTSeconds - 1
		res.FastestTBTGain[key] = 1 - bestTBT.TBT()/a100.TBTSeconds
	}
	return res, nil
}

// Scatters returns the TTFT-vs-area, TBT-vs-area and TTFT-vs-TBT panels
// with TPP-target classes; invalid designs (PD violation or reticle) are
// marked as such, mirroring the paper's white markers.
func (r Fig7Result) Scatters() []plot.Scatter {
	ttftArea := plot.Scatter{
		Title:  fmt.Sprintf("Fig 7: %s Prefill vs Die Area (Oct 2023 DSE)", r.Model.Name),
		XLabel: "Die Area (mm2)", YLabel: "TTFT (ms)",
	}
	tbtArea := plot.Scatter{
		Title:  fmt.Sprintf("Fig 7: %s Decoding vs Die Area", r.Model.Name),
		XLabel: "Die Area (mm2)", YLabel: "TBT (ms)",
	}
	ttftTBT := plot.Scatter{
		Title:  fmt.Sprintf("Fig 7: %s Prefill vs Decoding", r.Model.Name),
		XLabel: "TTFT (ms)", YLabel: "TBT (ms)",
	}
	for _, tpp := range Oct2023TPPTargets {
		for _, p := range r.PointsByTPP[int(tpp)] {
			class := fmt.Sprintf("%d TPP", int(tpp))
			if !p.Compliant() {
				class = "invalid (PD or reticle)"
			}
			ttftArea.Points = append(ttftArea.Points, plot.Point{
				X: p.AreaMM2, Y: p.TTFT() * 1e3, Class: class, Label: p.Config.Name})
			tbtArea.Points = append(tbtArea.Points, plot.Point{
				X: p.AreaMM2, Y: p.TBT() * 1e3, Class: class, Label: p.Config.Name})
			ttftTBT.Points = append(ttftTBT.Points, plot.Point{
				X: p.TTFT() * 1e3, Y: p.TBT() * 1e3, Class: class, Label: p.Config.Name})
		}
	}
	return []plot.Scatter{ttftArea, tbtArea, ttftTBT}
}

func (r Fig7Result) render(w io.Writer) error {
	for _, s := range r.Scatters() {
		if _, err := fmt.Fprint(w, s.RenderASCII(72, 16), "\n"); err != nil {
			return err
		}
	}
	rows := [][]string{{"TPP target", "designs", "compliant", "fastest TTFT vs A100", "fastest TBT vs A100"}}
	for _, tpp := range Oct2023TPPTargets {
		key := int(tpp)
		ttft, tbt := "n/a", "n/a"
		if r.CompliantCounts[key] > 0 {
			ttft = pct(r.FastestTTFTSlowdown[key]) + " slower"
			tbt = pct(r.FastestTBTGain[key]) + " faster"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", key),
			fmt.Sprintf("%d", len(r.PointsByTPP[key])),
			fmt.Sprintf("%d", r.CompliantCounts[key]),
			ttft, tbt,
		})
	}
	_, err := fmt.Fprintf(w, "%s\n%s", r.Model.Name, plot.Table(rows))
	return err
}

// Table4Result is the §4.4 PD-compliant vs non-compliant optimal-design
// comparison for GPT-3 175B at 2400 TPP.
type Table4Result struct {
	Compliant    dse.Point
	NonCompliant dse.Point
	// SRAM totals (MB) for the §4.4 power discussion.
	CompliantSRAMMB    float64
	NonCompliantSRAMMB float64
	// GoodDiesCostM is the 1M-good-dies cost in $M for each design.
	CompliantGoodDiesCostM    float64
	NonCompliantGoodDiesCostM float64
}

// Table4 finds the fastest-TTFT PD-compliant and PD-non-compliant
// manufacturable 2400-TPP designs for GPT-3 and compares their economics.
func (l *Lab) Table4() (Table4Result, error) {
	w := model.PaperWorkload(model.GPT3_175B())
	pts, err := l.Explorer.Run(dse.Table3(2400, Oct2023DeviceBWs), w)
	if err != nil {
		return Table4Result{}, err
	}
	manufacturable := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	compliantSet := dse.Filter(manufacturable, func(p dse.Point) bool {
		return p.Oct2023Class == policy.NotApplicable
	})
	nonCompliantSet := dse.Filter(manufacturable, func(p dse.Point) bool {
		return p.Oct2023Class != policy.NotApplicable
	})
	// Fastest TTFT each, ties (within 0.5%) broken by smallest die: the
	// paper's comparison point is that the non-compliant design reaches the
	// same performance with far less silicon.
	compliant, err := dse.BestWithTieBreak(compliantSet, dse.MetricTTFT, dse.MetricArea, 0.005)
	if err != nil {
		return Table4Result{}, fmt.Errorf("table4: no PD-compliant designs: %w", err)
	}
	nonCompliant, err := dse.BestWithTieBreak(nonCompliantSet, dse.MetricTTFT, dse.MetricArea, 0.005)
	if err != nil {
		return Table4Result{}, fmt.Errorf("table4: no non-compliant designs: %w", err)
	}
	res := Table4Result{
		Compliant:          compliant,
		NonCompliant:       nonCompliant,
		CompliantSRAMMB:    area.SRAMTotalMB(compliant.Config),
		NonCompliantSRAMMB: area.SRAMTotalMB(nonCompliant.Config),
	}
	res.CompliantGoodDiesCostM = compliant.GoodDieCostUSD * 1e6 / 1e6
	res.NonCompliantGoodDiesCostM = nonCompliant.GoodDieCostUSD * 1e6 / 1e6
	return res, nil
}

// Rows renders the Table 4 layout.
func (r Table4Result) Rows() [][]string {
	f := func(p dse.Point, sram float64, goodM float64) []string {
		return []string{
			fmt.Sprintf("%.0f mm²", p.AreaMM2),
			fmt.Sprintf("%.2f", p.PD),
			ms(p.TTFT()),
			ms(p.TBT()),
			fmt.Sprintf("$%.0f", p.DieCostUSD),
			fmt.Sprintf("$%.0fM", goodM),
			fmt.Sprintf("%.0f MB", sram),
		}
	}
	c := f(r.Compliant, r.CompliantSRAMMB, r.CompliantGoodDiesCostM)
	n := f(r.NonCompliant, r.NonCompliantSRAMMB, r.NonCompliantGoodDiesCostM)
	rows := [][]string{{"Parameter", "PD Compliant", "Non-Compliant"}}
	params := []string{"Die Area", "PD", "TTFT", "TBT", "Silicon Die Cost (7nm)", "1M Good Dies Cost (7nm)", "On-chip SRAM"}
	for i, p := range params {
		rows = append(rows, []string{p, c[i], n[i]})
	}
	return rows
}

// Fig8Result holds the latency-cost products for the Fig 7 sweep.
type Fig8Result struct {
	Model    model.Model
	TTFTCost plot.Scatter
	TBTCost  plot.Scatter
}

// Fig8 computes the latency–die-cost products over the October 2023 DSE.
func (l *Lab) Fig8(m model.Model) (Fig8Result, error) {
	r7, err := l.Fig7(m)
	if err != nil {
		return Fig8Result{}, err
	}
	res := Fig8Result{
		Model: m,
		TTFTCost: plot.Scatter{
			Title:  fmt.Sprintf("Fig 8: %s TTFT × Die Cost", m.Name),
			XLabel: "Die Area (mm2)", YLabel: "TTFT-Die Cost Product (ms·$)",
		},
		TBTCost: plot.Scatter{
			Title:  fmt.Sprintf("Fig 8: %s TBT × Die Cost", m.Name),
			XLabel: "Die Area (mm2)", YLabel: "TBT-Die Cost Product (ms·$)",
		},
	}
	for _, tpp := range Oct2023TPPTargets {
		for _, p := range r7.PointsByTPP[int(tpp)] {
			class := fmt.Sprintf("%d TPP", int(tpp))
			if !p.Compliant() {
				class = "invalid (PD or reticle)"
			}
			res.TTFTCost.Points = append(res.TTFTCost.Points, plot.Point{
				X: p.AreaMM2, Y: p.TTFTCostProduct(), Class: class, Label: p.Config.Name})
			res.TBTCost.Points = append(res.TBTCost.Points, plot.Point{
				X: p.AreaMM2, Y: p.TBTCostProduct(), Class: class, Label: p.Config.Name})
		}
	}
	return res, nil
}

// CostRatios computes the §4.4 comparison: the PD-compliant minimum
// latency-cost products for 2400-TPP designs relative to non-compliant
// minima (the paper reports 2.72×/2.64× for GPT-3 and 2.58×/2.91× for
// Llama 3).
func (l *Lab) CostRatios(m model.Model) (ttftRatio, tbtRatio float64, err error) {
	w := model.PaperWorkload(m)
	pts, err := l.Explorer.Run(dse.Table3(2400, Oct2023DeviceBWs), w)
	if err != nil {
		return 0, 0, err
	}
	manufacturable := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	compliant := dse.Filter(manufacturable, func(p dse.Point) bool {
		return p.Oct2023Class == policy.NotApplicable
	})
	nonCompliant := dse.Filter(manufacturable, func(p dse.Point) bool {
		return p.Oct2023Class != policy.NotApplicable
	})
	cT, err := dse.Best(compliant, dse.MetricTTFTCost)
	if err != nil {
		return 0, 0, err
	}
	nT, err := dse.Best(nonCompliant, dse.MetricTTFTCost)
	if err != nil {
		return 0, 0, err
	}
	cB, err := dse.Best(compliant, dse.MetricTBTCost)
	if err != nil {
		return 0, 0, err
	}
	nB, err := dse.Best(nonCompliant, dse.MetricTBTCost)
	if err != nil {
		return 0, 0, err
	}
	return cT.TTFTCostProduct() / nT.TTFTCostProduct(),
		cB.TBTCostProduct() / nB.TBTCostProduct(), nil
}

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "October 2023 design-space exploration (1600/2400/4800 TPP, both models)",
		Run: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig7(m)
				if err != nil {
					return err
				}
				if err := r.render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		},
		CSV: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig7(m)
				if err != nil {
					return err
				}
				for _, s := range r.Scatters() {
					if err := s.WriteCSV(w); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	register(Experiment{
		ID:    "table4",
		Title: "PD-compliant vs non-compliant optimal 2400-TPP designs (GPT-3 175B)",
		Run: func(l *Lab, w io.Writer) error {
			r, err := l.Table4()
			if err != nil {
				return err
			}
			if _, err := fmt.Fprint(w, plot.Table(r.Rows())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\ncompliant design: %s\nnon-compliant design: %s\n",
				r.Compliant.Config.Name, r.NonCompliant.Config.Name)
			return err
		},
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Latency × die-cost products over the October 2023 DSE",
		Run: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig8(m)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprint(w, r.TTFTCost.RenderASCII(72, 14), "\n"); err != nil {
					return err
				}
				if _, err := fmt.Fprint(w, r.TBTCost.RenderASCII(72, 14), "\n"); err != nil {
					return err
				}
				tr, br, err := l.CostRatios(m)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s 2400-TPP compliant vs non-compliant latency-cost minima: TTFT %.2fx, TBT %.2fx (paper: 2.72x/2.64x GPT-3, 2.58x/2.91x Llama 3)\n\n",
					m.Name, tr, br)
			}
			return nil
		},
		CSV: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig8(m)
				if err != nil {
					return err
				}
				if err := r.TTFTCost.WriteCSV(w); err != nil {
					return err
				}
				if err := r.TBTCost.WriteCSV(w); err != nil {
					return err
				}
			}
			return nil
		},
	})
}
