package batch

import (
	"context"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// allocGrid hand-rolls the full 512-design Table 3 sweep (the dse package
// owns the real grid; importing it here would cycle), with the core count
// solved against the paper's TPP budget.
func allocGrid(tb testing.TB) []arch.Config {
	var cfgs []arch.Config
	for _, dim := range []int{16, 32} {
		for _, lanes := range []int{1, 2, 4, 8} {
			cores, err := arch.MaxCoresForTPP(4800, lanes, dim, dim, arch.A100ClockGHz)
			if err != nil {
				tb.Fatal(err)
			}
			for _, l1 := range []int{192, 256, 512, 1024} {
				for _, l2 := range []int{32, 48, 64, 80} {
					for _, hbm := range []float64{2000, 2400, 2800, 3200} {
						cfgs = append(cfgs, arch.Config{
							Name:            "alloc-grid",
							CoreCount:       cores,
							LanesPerCore:    lanes,
							SystolicDimX:    dim,
							SystolicDimY:    dim,
							VectorWidth:     32,
							L1KB:            l1,
							L2MB:            l2,
							HBMCapacityGB:   80,
							HBMBandwidthGBs: hbm,
							DeviceBWGBs:     600,
							ClockGHz:        arch.A100ClockGHz,
							Process:         arch.ProcessN7,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// TestBatchSteadyStateZeroAllocs pins the steady-state claim: once a
// reused Outcome's scratch arena is warm and the result slices are
// caller-owned, a full sweep performs exactly zero heap allocations, with
// per-op profiles and sums only (a nil backing) alike.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	cfgs := allocGrid(t)
	g, err := ir.Lower(model.PaperWorkload(model.GPT3_175B()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		backing []perf.Time
	}{
		{"per-op", make([]perf.Time, len(cfgs)*len(g.Nodes))},
		{"sums-only", nil},
	} {
		ev := &Evaluator{Engine: sim.New().Engine}
		out := Outcome{
			Results: make([]sim.Result, len(cfgs)),
			Done:    make([]bool, len(cfgs)),
		}
		ctx := context.Background()

		// Warm the arena, then check the warmed sweep is loud about errors.
		if err := ev.SweepInto(ctx, cfgs, g, &out, c.backing); err != nil {
			t.Fatal(err)
		}
		for d := range cfgs {
			if !out.Done[d] {
				t.Fatalf("%s: design %d not evaluated", c.name, d)
			}
		}

		allocs := testing.AllocsPerRun(10, func() {
			if err := ev.SweepInto(ctx, cfgs, g, &out, c.backing); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state sweep allocates %v times per run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkSweepIntoPrealloc measures the pure evaluation loop with all
// result memory caller-owned and a reused Outcome — the sweep cost with
// allocation excluded.
func BenchmarkSweepIntoPrealloc(b *testing.B) {
	cfgs := allocGrid(b)
	g, err := ir.Lower(model.PaperWorkload(model.GPT3_175B()))
	if err != nil {
		b.Fatal(err)
	}
	ev := &Evaluator{Engine: sim.New().Engine}
	out := Outcome{
		Results: make([]sim.Result, len(cfgs)),
		Done:    make([]bool, len(cfgs)),
	}
	backing := make([]perf.Time, len(cfgs)*len(g.Nodes))
	ctx := context.Background()
	if err := ev.SweepInto(ctx, cfgs, g, &out, backing); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.SweepInto(ctx, cfgs, g, &out, backing); err != nil {
			b.Fatal(err)
		}
	}
}
