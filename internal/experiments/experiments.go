// Package experiments regenerates every table and figure in the paper's
// evaluation: the device-classification scatters (Figs 1, 2, 9, 10), the
// October 2022 TPP-vs-bandwidth sweep (Fig 5), the October 2022 and 2023
// design-space explorations (Figs 6, 7), the cost analysis (Table 4,
// Fig 8), the architecture-first performance-indicator distributions
// (Figs 11, 12), and the §5 externality analysis.
//
// Each experiment has a typed entry point returning structured results, and
// the Registry exposes them uniformly for the cmd/experiments CLI and the
// benchmark harness. A Lab shares one explorer, so experiments that repeat
// a DSE (Fig 7, Table 4, Fig 8, Fig 11) are served from its point store
// while the designs stay in it.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/sim"
)

// Lab holds the explorer one experiment session shares. A zero Lab is
// not usable; construct with NewLab.
type Lab struct {
	Explorer *dse.Explorer
}

// NewLab returns a Lab with the calibrated simulator and cost models.
func NewLab() *Lab {
	return &Lab{Explorer: dse.NewExplorer()}
}

// Workloads returns the two paper workloads (Table 2, §3.2 settings).
func Workloads() []model.Workload {
	return []model.Workload{
		model.PaperWorkload(model.GPT3_175B()),
		model.PaperWorkload(model.Llama3_8B()),
	}
}

// A100Baseline simulates the modeled A100 for a workload.
func (l *Lab) A100Baseline(w model.Workload) (sim.Result, error) {
	return l.Explorer.Sim.Simulate(arch.A100(), w)
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig7" or "table4".
	ID string
	// Title describes the artifact.
	Title string
	// Run renders the experiment's report to w.
	Run func(l *Lab, w io.Writer) error
	// CSV writes the artifact's raw data series to w, when the artifact is
	// a figure with plottable data (nil for pure tables).
	CSV func(l *Lab, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given registry key.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// ms formats seconds as milliseconds with sensible precision.
func ms(sec float64) string {
	if sec < 0.01 {
		return fmt.Sprintf("%.4f ms", sec*1e3)
	}
	return fmt.Sprintf("%.1f ms", sec*1e3)
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", f*100) }
