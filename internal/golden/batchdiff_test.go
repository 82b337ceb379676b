package golden

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/sim"
)

// The batch differential suite: the default explorer, which evaluates
// through the struct-of-arrays batch evaluator, must agree with the
// single-design reference (ReferenceExplorer) bit-for-bit — not within
// DefaultRelTol — on every golden grid. The golden sweep tests hold the
// same default explorer to the committed fixtures, so a batch lowering
// bug fails twice: once against the reference points at the ulp level
// and once against the snapshot.

// batchGrids are the committed fixture sweeps.
func batchGrids() []struct {
	fixture string
	grid    dse.Grid
	w       model.Workload
	designs int
} {
	return []struct {
		fixture string
		grid    dse.Grid
		w       model.Workload
		designs int
	}{
		{"sweep_table3_tpp4800_gpt3", dse.Table3(4800, []float64{600}), model.PaperWorkload(model.GPT3_175B()), 512},
		{"sweep_table3_tpp2400_3bw_llama3", dse.Table3(2400, []float64{500, 700, 900}), model.PaperWorkload(model.Llama3_8B()), 1536},
		{"sweep_table5_gpt3", dse.Table5(), model.PaperWorkload(model.GPT3_175B()), 2304},
	}
}

// TestBatchScalarBitEqualOnGoldenGrids evaluates every golden grid through
// the reference and the default explorer and requires exact float bit
// equality on every point field — and again on a second, fully cache-hit
// run, pinning that store hits stay bit-identical too. Sweep points carry
// no per-operator Times; TestOpProfilesBitEqualOnGoldenGrids holds those
// to the same standard.
func TestBatchScalarBitEqualOnGoldenGrids(t *testing.T) {
	for _, c := range batchGrids() {
		t.Run(c.fixture, func(t *testing.T) {
			reference, err := ReferenceExplorer().Run(c.grid, c.w)
			if err != nil {
				t.Fatal(err)
			}
			ex := dse.NewExplorer()
			cold, err := ex.Run(c.grid, c.w)
			if err != nil {
				t.Fatal(err)
			}
			if len(cold) != c.designs {
				t.Fatalf("batch run returned %d designs, want %d", len(cold), c.designs)
			}
			if diffs := DiffPointsExact(reference, cold); len(diffs) != 0 {
				t.Fatalf("batch differs from the reference in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
			}
			warm, err := ex.Run(c.grid, c.w)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := DiffPointsExact(cold, warm); len(diffs) != 0 {
				t.Fatalf("warm (cache-hit) run differs from cold in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
			}
		})
	}
}

// TestOpProfilesBitEqualOnGoldenGrids holds per-operator profiles to the
// exact contract where they are computed: on every golden grid,
// batch.Evaluator.Sweep and one sim.SimulateGraph call per design on the
// ir.Analytic backend (ReferenceExplorer's simulator) agree bit-for-bit
// on every per-design scalar and every per-operator Time, and both pass
// the per-operator invariants: no operator below its bound components,
// and each phase latency the sum of its operators.
func TestOpProfilesBitEqualOnGoldenGrids(t *testing.T) {
	for _, c := range batchGrids() {
		t.Run(c.fixture, func(t *testing.T) {
			cfgs := c.grid.Expand()
			g, err := ir.Lower(c.w)
			if err != nil {
				t.Fatal(err)
			}
			simr := ReferenceExplorer().Sim
			reference := make([]sim.Result, len(cfgs))
			for i, cfg := range cfgs {
				if reference[i], err = simr.SimulateGraph(cfg, g); err != nil {
					t.Fatal(err)
				}
			}
			out, err := (&batch.Evaluator{Engine: simr.Engine}).Sweep(context.Background(), cfgs, g)
			if err != nil {
				t.Fatal(err)
			}
			for d, done := range out.Done {
				if !done {
					t.Fatalf("design %d not evaluated", d)
				}
			}
			if diffs := DiffResultsExact(reference, out.Results); len(diffs) != 0 {
				t.Fatalf("batch profiles differ from the reference in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
			}
			for _, side := range []struct {
				name    string
				results []sim.Result
			}{{"reference", reference}, {"batch", out.Results}} {
				if viols := CheckProfiles(side.results); len(viols) != 0 {
					t.Errorf("%s: %d profile violations, e.g. %s", side.name, len(viols), viols[0])
				}
			}
		})
	}
}

// TestSumsOnlySweepBitEqual pins the sums-only pass every dse sweep runs:
// on every golden grid, SweepInto with a nil backing gives the same TTFT,
// TBT and MFU bits as Sweep, and leaves the per-operator profiles nil.
func TestSumsOnlySweepBitEqual(t *testing.T) {
	for _, c := range batchGrids() {
		t.Run(c.fixture, func(t *testing.T) {
			cfgs := c.grid.Expand()
			g, err := ir.Lower(c.w)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			ev := &batch.Evaluator{Engine: sim.New().Engine}
			want, err := ev.Sweep(ctx, cfgs, g)
			if err != nil {
				t.Fatal(err)
			}
			got := batch.Outcome{Results: make([]sim.Result, len(cfgs)), Done: make([]bool, len(cfgs))}
			if err := ev.SweepInto(ctx, cfgs, g, &got, nil); err != nil {
				t.Fatal(err)
			}
			var diffs []string
			for d := range cfgs {
				if !got.Done[d] || !want.Done[d] {
					t.Fatalf("design %d: done %v sums-only, %v per-op", d, got.Done[d], want.Done[d])
				}
				r := got.Results[d]
				if r.PrefillOps != nil || r.DecodeOps != nil {
					t.Fatalf("design %d: sums-only result holds %d+%d ops", d, len(r.PrefillOps), len(r.DecodeOps))
				}
				diffs = diffScalarsExact(diffs, fmt.Sprintf("[%d %s]", d, cfgs[d].Name), want.Results[d], r)
			}
			if len(diffs) != 0 {
				t.Fatalf("sums-only sweep differs from Sweep in %d fields, e.g.:\n%s", len(diffs), firstN(diffs, 10))
			}
		})
	}
}

func firstN(diffs []string, n int) string {
	out := ""
	for i, d := range diffs {
		if i == n {
			break
		}
		out += d + "\n"
	}
	return out
}
