package batch_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/dse"
	"repro/internal/golden"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/sim"
)

// FuzzBatchScalarEquality is the differential fuzzer behind the batch
// evaluator's bit-equality contract: arbitrary configuration axes are
// mapped into a small sweep whose variants flip one group axis each (so
// group discovery, dedup and the tabled/untabled matmul split all
// exercise), and the sweep must come back bit-identical through the
// default (batch) explorer and the single-design reference explorer
// (golden.ReferenceExplorer) — every point field under math.Float64bits —
// and through batch.Evaluator.Sweep and the reference's per-design
// sim.SimulateGraph, every per-operator Time too. Seeds live in
// testdata/fuzz/FuzzBatchScalarEquality.
func FuzzBatchScalarEquality(f *testing.F) {
	// The paper's Table 3 corner, a lanes-heavy feed-limited shape, a
	// TP=1 (trivial all-reduce) llama3 case, and a quantized low-clock one.
	f.Add(uint16(108), uint8(4), uint8(2), uint8(32), uint16(192), uint16(48), uint16(2400), uint16(600), uint16(141), uint8(0), uint8(2), uint8(0))
	f.Add(uint16(16), uint8(8), uint8(0), uint8(1), uint16(16), uint16(1), uint16(100), uint16(0), uint16(299), uint8(0), uint8(3), uint8(1))
	f.Add(uint16(512), uint8(1), uint8(4), uint8(64), uint16(2000), uint16(128), uint16(4000), uint16(900), uint16(50), uint8(1), uint8(0), uint8(0))
	f.Add(uint16(64), uint8(2), uint8(3), uint8(16), uint16(512), uint16(64), uint16(3200), uint16(300), uint16(0), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, cores uint16, lanes, dimSel, vecW uint8, l1KB, l2MB, hbm, dev, clockCenti uint16, modelSel, tpSel, wbitsSel uint8) {
		dims := [...]int{4, 8, 16, 32, 64}
		base := arch.Config{
			CoreCount:       1 + int(cores%1024),
			LanesPerCore:    1 + int(lanes%8),
			SystolicDimX:    dims[dimSel%5],
			SystolicDimY:    dims[(dimSel/5)%5],
			VectorWidth:     1 + int(vecW%64),
			L1KB:            16 + int(l1KB%2048),
			L2MB:            1 + int(l2MB%128),
			HBMCapacityGB:   80,
			HBMBandwidthGBs: float64(1 + hbm%4000),
			DeviceBWGBs:     float64(dev % 2000),
			ClockGHz:        0.5 + float64(clockCenti%300)/100,
			Process:         arch.ProcessN7,
		}
		// One variant per group axis, plus an exact duplicate of the base:
		// the sweep must dedupe groups without conflating designs.
		variants := []func(*arch.Config){
			func(c *arch.Config) {},
			func(c *arch.Config) { c.HBMBandwidthGBs *= 2 },
			func(c *arch.Config) { c.L2MB += 16 },
			func(c *arch.Config) { c.DeviceBWGBs += 300 },
			func(c *arch.Config) { c.LanesPerCore++ },
			func(c *arch.Config) { c.L1KB *= 2 },
			func(c *arch.Config) { c.ClockGHz += 0.25 },
			func(c *arch.Config) {},
		}
		cfgs := make([]arch.Config, 0, len(variants))
		for i, mut := range variants {
			c := base
			mut(&c)
			c.Name = fmt.Sprintf("fuzz-%d", i)
			if c.Validate() != nil {
				continue
			}
			cfgs = append(cfgs, c)
		}
		if len(cfgs) == 0 {
			return
		}
		m := model.GPT3_175B()
		if modelSel%2 == 1 {
			m = model.Llama3_8B()
		}
		w := model.PaperWorkload(m)
		w.TensorParallel = 1 << (tpSel % 4) // 1, 2, 4, 8 — all divide both models' heads
		if wbitsSel%2 == 1 {
			w.WeightBits = 8
		}
		if w.Validate() != nil {
			return
		}

		scalar := golden.ReferenceExplorer()
		scalar.Parallelism = 1
		bex := dse.NewExplorer()
		bex.Cache = nil
		bex.Parallelism = 1
		ps, errS := scalar.EvaluateContext(context.Background(), cfgs, w)
		if errS != nil {
			t.Fatalf("scalar sweep failed on validated configs: %v", errS)
		}
		pb, errB := bex.EvaluateContext(context.Background(), cfgs, w)
		if errB != nil {
			t.Fatalf("batch sweep failed where scalar succeeded: %v", errB)
		}
		if diffs := golden.DiffPointsExact(ps, pb); len(diffs) != 0 {
			t.Fatalf("batch differs from scalar in %d fields, e.g.:\n%s", len(diffs), diffs[0])
		}

		// Per-operator profiles, where they are computed.
		g, err := ir.Lower(w)
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			if rs[i], err = scalar.Sim.SimulateGraph(cfg, g); err != nil {
				t.Fatalf("scalar profile of %s: %v", cfg.Name, err)
			}
		}
		out, err := (&batch.Evaluator{Engine: scalar.Sim.Engine}).Sweep(context.Background(), cfgs, g)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := golden.DiffResultsExact(rs, out.Results); len(diffs) != 0 {
			t.Fatalf("batch profiles differ from scalar in %d fields, e.g.:\n%s", len(diffs), diffs[0])
		}
	})
}
