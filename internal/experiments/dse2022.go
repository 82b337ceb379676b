package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/plot"
	"repro/internal/sim"
)

// Fig6Result is the §4.2 October 2022 design-space exploration for one
// model: 512 designs at TPP < 4800 with 600 GB/s device bandwidth, plus
// the optimal manufacturable design compared against the modeled A100.
type Fig6Result struct {
	Model  model.Model
	Points []dse.Point
	A100   sim.Result

	// Optimum is the best manufacturable (reticle-fitting) design by the
	// combined objective the paper reports: lowest TBT among designs that
	// also beat (or tie) the A100's TTFT, falling back to lowest TBT.
	Optimum dse.Point
	// TTFTGain and TBTGain are improvements over the A100 (positive =
	// faster). The paper reports 1.2%/27% for GPT-3 and 4%/14.2% for
	// Llama 3.
	TTFTGain float64
	TBTGain  float64
}

// Fig6 runs the October 2022 DSE (Table 3 at TPP 4800, 600 GB/s) for one
// model.
func (l *Lab) Fig6(m model.Model) (Fig6Result, error) {
	w := model.PaperWorkload(m)
	pts, err := l.Explorer.Run(dse.Table3(4800, []float64{600}), w)
	if err != nil {
		return Fig6Result{}, err
	}
	a100, err := l.A100Baseline(w)
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{Model: m, Points: pts, A100: a100}

	manufacturable := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	if len(manufacturable) == 0 {
		return Fig6Result{}, fmt.Errorf("fig6 %s: no manufacturable designs", m.Name)
	}
	// Prefer designs that beat the A100's prefill, then minimise decode.
	beatTTFT := dse.Filter(manufacturable, func(p dse.Point) bool {
		return p.TTFT() <= a100.TTFTSeconds
	})
	pool := beatTTFT
	if len(pool) == 0 {
		pool = manufacturable
	}
	opt, err := dse.Best(pool, dse.MetricTBT)
	if err != nil {
		return Fig6Result{}, err
	}
	res.Optimum = opt
	res.TTFTGain = 1 - opt.TTFT()/a100.TTFTSeconds
	res.TBTGain = 1 - opt.TBT()/a100.TBTSeconds
	return res, nil
}

// Scatters returns the three panels of the figure: TTFT vs area, TBT vs
// area, and TTFT vs TBT, with classes encoding memory bandwidth (the
// paper's marker shapes) and reticle violations.
func (r Fig6Result) Scatters() []plot.Scatter {
	ttftArea := plot.Scatter{
		Title:  fmt.Sprintf("Fig 6: %s Prefill vs Die Area (TPP<4800, 600 GB/s)", r.Model.Name),
		XLabel: "Die Area (mm2)", YLabel: "TTFT (ms)",
	}
	tbtArea := plot.Scatter{
		Title:  fmt.Sprintf("Fig 6: %s Decoding vs Die Area", r.Model.Name),
		XLabel: "Die Area (mm2)", YLabel: "TBT (ms)",
	}
	ttftTBT := plot.Scatter{
		Title:  fmt.Sprintf("Fig 6: %s Prefill vs Decoding", r.Model.Name),
		XLabel: "TTFT (ms)", YLabel: "TBT (ms)",
	}
	for _, p := range r.Points {
		class := fmt.Sprintf("%.1f TB/s", p.Config.HBMBandwidthGBs/1000)
		if !p.FitsReticle {
			class = "reticle violation"
		}
		label := p.Config.Name
		ttftArea.Points = append(ttftArea.Points, plot.Point{
			X: p.AreaMM2, Y: p.TTFT() * 1e3, Class: class, Label: label})
		tbtArea.Points = append(tbtArea.Points, plot.Point{
			X: p.AreaMM2, Y: p.TBT() * 1e3, Class: class, Label: label})
		ttftTBT.Points = append(ttftTBT.Points, plot.Point{
			X: p.TTFT() * 1e3, Y: p.TBT() * 1e3, Class: class, Label: label})
	}
	a100 := plot.Point{X: arch.GA100DieAreaMM2, Y: r.A100.TTFTSeconds * 1e3,
		Class: "A100", Label: "modeled A100"}
	ttftArea.Points = append(ttftArea.Points, a100)
	tbtArea.Points = append(tbtArea.Points, plot.Point{
		X: arch.GA100DieAreaMM2, Y: r.A100.TBTSeconds * 1e3, Class: "A100", Label: "modeled A100"})
	ttftTBT.Points = append(ttftTBT.Points, plot.Point{
		X: r.A100.TTFTSeconds * 1e3, Y: r.A100.TBTSeconds * 1e3, Class: "A100", Label: "modeled A100"})
	return []plot.Scatter{ttftArea, tbtArea, ttftTBT}
}

func (r Fig6Result) render(w io.Writer) error {
	for _, s := range r.Scatters() {
		if _, err := fmt.Fprint(w, s.RenderASCII(72, 16), "\n"); err != nil {
			return err
		}
	}
	o := r.Optimum
	_, err := fmt.Fprintf(w,
		"%s: %d designs (%d manufacturable)\nA100 baseline: TTFT %s, TBT %s\noptimal compliant design: %s\n  area %.0f mm², TTFT %s (%s vs A100), TBT %s (%s vs A100)\n",
		r.Model.Name, len(r.Points),
		len(dse.Filter(r.Points, func(p dse.Point) bool { return p.FitsReticle })),
		ms(r.A100.TTFTSeconds), ms(r.A100.TBTSeconds),
		o.Config.Name, o.AreaMM2,
		ms(o.TTFT()), pct(r.TTFTGain), ms(o.TBT()), pct(r.TBTGain))
	return err
}

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "October 2022 design-space exploration (512 designs, both models)",
		Run: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig6(m)
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
				r, err := l.Fig6(m)
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
		ID:    "headline",
		Title: "§4.2 headline: compliant designs vs the modeled A100",
		Run: func(l *Lab, w io.Writer) error {
			rows := [][]string{{"model", "optimum", "TTFT gain", "TBT gain", "paper TTFT", "paper TBT"}}
			paper := map[string][2]string{
				model.GPT3_175B().Name: {"+1.2%", "+27%"},
				model.Llama3_8B().Name: {"+4%", "+14.2%"},
			}
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := l.Fig6(m)
				if err != nil {
					return err
				}
				rows = append(rows, []string{
					m.Name, r.Optimum.Config.Name, pct(r.TTFTGain), pct(r.TBTGain),
					paper[m.Name][0], paper[m.Name][1],
				})
			}
			_, err := fmt.Fprint(w, plot.Table(rows))
			return err
		},
	})
}
