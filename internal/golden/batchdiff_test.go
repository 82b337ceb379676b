package golden

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
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
// equality on every point field and every per-operator Time — and again
// on a second, fully cache-hit run, pinning that store hits stay
// bit-identical too.
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
