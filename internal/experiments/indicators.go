package experiments

import (
	"fmt"
	"io"

	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/plot"
	"repro/internal/stats"
)

// IndicatorGroup fixes one architectural parameter and summarises the
// latency distribution of the matching designs.
type IndicatorGroup struct {
	Name   string
	Filter func(dse.Point) bool
}

// gridTol matches float config fields against enumerated grid values;
// adjacent grid points differ by far more than 1e-6 relative, so this
// selects exactly the intended column.
const gridTol = 1e-6

// fig11Groups are the Fig 11 columns: each fixes one Table 3 parameter at
// the value the paper highlights.
func fig11Groups() []IndicatorGroup {
	return []IndicatorGroup{
		{"1 Lane", func(p dse.Point) bool { return p.Config.LanesPerCore == 1 }},
		{"1024 KB L1", func(p dse.Point) bool { return p.Config.L1KB == 1024 }},
		{"48 MB L2", func(p dse.Point) bool { return p.Config.L2MB == 48 }},
		{"2.8 TB/s M. BW", func(p dse.Point) bool { return num.ApproxEqual(p.Config.HBMBandwidthGBs, 2800, gridTol) }},
		{"500 GB/s D. BW", func(p dse.Point) bool { return num.ApproxEqual(p.Config.DeviceBWGBs, 500, gridTol) }},
	}
}

// fig12Groups are the Fig 12 columns over the Table 5 restricted grid.
func fig12Groups() []IndicatorGroup {
	return []IndicatorGroup{
		{"8 Lane", func(p dse.Point) bool { return p.Config.LanesPerCore == 8 }},
		{"32 KB L1", func(p dse.Point) bool { return p.Config.L1KB == 32 }},
		{"8 MB L2", func(p dse.Point) bool { return p.Config.L2MB == 8 }},
		{"0.8 TB/s M. BW", func(p dse.Point) bool { return num.ApproxEqual(p.Config.HBMBandwidthGBs, 800, gridTol) }},
		{"400 GB/s D. BW", func(p dse.Point) bool { return num.ApproxEqual(p.Config.DeviceBWGBs, 400, gridTol) }},
	}
}

// IndicatorResult holds one model's grouped TTFT and TBT distributions.
type IndicatorResult struct {
	Model model.Model
	// Baseline are the all-designs summaries ("TPP Only" columns).
	TTFTBaseline stats.Summary
	TBTBaseline  stats.Summary
	// TTFTGroups and TBTGroups carry each fixed-parameter column.
	TTFTGroups []stats.Group
	TBTGroups  []stats.Group
	// Boxes hold the raw distributions for rendering.
	TTFTBoxes plot.BoxFigure
	TBTBoxes  plot.BoxFigure
}

// indicators computes grouped distributions for a design set.
func indicators(m model.Model, points []dse.Point, groups []IndicatorGroup, title string) IndicatorResult {
	ttftAll := make([]float64, 0, len(points))
	tbtAll := make([]float64, 0, len(points))
	for _, p := range points {
		ttftAll = append(ttftAll, p.TTFT()*1e3)
		tbtAll = append(tbtAll, p.TBT()*1e3)
	}
	ttftByGroup := map[string][]float64{}
	tbtByGroup := map[string][]float64{}
	order := []string{}
	for _, g := range groups {
		order = append(order, g.Name)
		for _, p := range points {
			if g.Filter(p) {
				ttftByGroup[g.Name] = append(ttftByGroup[g.Name], p.TTFT()*1e3)
				tbtByGroup[g.Name] = append(tbtByGroup[g.Name], p.TBT()*1e3)
			}
		}
	}
	res := IndicatorResult{Model: m}
	res.TTFTBaseline, res.TTFTGroups = stats.GroupBy(ttftAll, ttftByGroup)
	res.TBTBaseline, res.TBTGroups = stats.GroupBy(tbtAll, tbtByGroup)

	res.TTFTBoxes = plot.BoxFigure{Title: title + " TTFT", YLabel: "TTFT (ms)",
		Boxes: []plot.Box{{Label: "TPP Only", Values: ttftAll}}}
	res.TBTBoxes = plot.BoxFigure{Title: title + " TBT", YLabel: "TBT (ms)",
		Boxes: []plot.Box{{Label: "TPP Only", Values: tbtAll}}}
	for _, name := range order {
		res.TTFTBoxes.Boxes = append(res.TTFTBoxes.Boxes, plot.Box{Label: name, Values: ttftByGroup[name]})
		res.TBTBoxes.Boxes = append(res.TBTBoxes.Boxes, plot.Box{Label: name, Values: tbtByGroup[name]})
	}
	return res
}

// GroupByName returns the named group from a grouped summary list.
func GroupByName(groups []stats.Group, name string) (stats.Group, bool) {
	for _, g := range groups {
		if g.Name == name {
			return g, true
		}
	}
	return stats.Group{}, false
}

// Fig11 computes the latency distributions of all reticle-fitting 4800-TPP
// designs from the Fig 7 sweep, grouped by fixed architectural parameters.
// The paper's headline ratios: 1-lane designs narrow TTFT 5× (GPT-3) and
// 3.3× (Llama 3); fixed 2.8 TB/s memory bandwidth narrows TBT 20.6× and
// 10.7×; fixed device bandwidth narrows almost nothing.
func (l *Lab) Fig11(m model.Model) (IndicatorResult, error) {
	w := model.PaperWorkload(m)
	pts, err := l.Explorer.Run(dse.Table3(4800, Oct2023DeviceBWs), w)
	if err != nil {
		return IndicatorResult{}, err
	}
	manufacturable := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	return indicators(m, manufacturable, fig11Groups(),
		fmt.Sprintf("Fig 11: %s 4800-TPP distributions", m.Name)), nil
}

// Fig12 computes the restricted-DSE distributions over the Table 5 grid.
// The paper's headline: 32 KB L1 designs run 58.7%/52.6% slower median TTFT
// with 1.59×/1.43× narrower distributions; 0.8 TB/s memory bandwidth runs
// 110%/58.7% slower median TBT with 41.8×/42.4× narrower distributions.
func (l *Lab) Fig12(m model.Model) (IndicatorResult, error) {
	w := model.PaperWorkload(m)
	pts, err := l.Explorer.Run(dse.Table5(), w)
	if err != nil {
		return IndicatorResult{}, err
	}
	manufacturable := dse.Filter(pts, func(p dse.Point) bool { return p.FitsReticle })
	return indicators(m, manufacturable, fig12Groups(),
		fmt.Sprintf("Fig 12: %s restricted-grid distributions", m.Name)), nil
}

// MedianShiftVsA100 computes a group's median latency relative to the
// modeled A100 (the §5.3 "median TTFT 58.7% slower than A100" metric).
func (l *Lab) MedianShiftVsA100(m model.Model, g stats.Group, ttft bool) (float64, error) {
	base, err := l.A100Baseline(model.PaperWorkload(m))
	if err != nil {
		return 0, err
	}
	ref := base.TBTSeconds * 1e3
	if ttft {
		ref = base.TTFTSeconds * 1e3
	}
	return g.Summary.Median/ref - 1, nil
}

func (r IndicatorResult) render(l *Lab, w io.Writer) error {
	if _, err := fmt.Fprint(w, r.TTFTBoxes.RenderASCII(56), "\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, r.TBTBoxes.RenderASCII(56), "\n"); err != nil {
		return err
	}
	rows := [][]string{{"fixed parameter", "metric", "narrowing", "median shift vs all", "median vs A100"}}
	appendGroups := func(groups []stats.Group, metric string, ttft bool) error {
		for _, g := range groups {
			vsA100, err := l.MedianShiftVsA100(r.Model, g, ttft)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				g.Name, metric, fmt.Sprintf("%.1fx", g.Narrowing),
				pct(g.MedianShift), pct(vsA100),
			})
		}
		return nil
	}
	if err := appendGroups(r.TTFTGroups, "TTFT", true); err != nil {
		return err
	}
	if err := appendGroups(r.TBTGroups, "TBT", false); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s baseline: TTFT %s / TBT %s\n%s\n",
		r.Model.Name, r.TTFTBaseline, r.TBTBaseline, plot.Table(rows))
	return err
}

func registerIndicator(id, title string, run func(l *Lab, m model.Model) (IndicatorResult, error)) {
	register(Experiment{
		ID:    id,
		Title: title,
		Run: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := run(l, m)
				if err != nil {
					return err
				}
				if err := r.render(l, w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		},
		CSV: func(l *Lab, w io.Writer) error {
			for _, m := range []model.Model{model.GPT3_175B(), model.Llama3_8B()} {
				r, err := run(l, m)
				if err != nil {
					return err
				}
				if err := r.TTFTBoxes.WriteCSV(w); err != nil {
					return err
				}
				if err := r.TBTBoxes.WriteCSV(w); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

func init() {
	registerIndicator("fig11", "4800-TPP latency distributions grouped by fixed parameter",
		func(l *Lab, m model.Model) (IndicatorResult, error) { return l.Fig11(m) })
	registerIndicator("fig12", "Restricted-grid (Table 5) latency distributions",
		func(l *Lab, m model.Model) (IndicatorResult, error) { return l.Fig12(m) })
}
