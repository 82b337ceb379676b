package batch_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/batch"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/perf"
	"repro/internal/sim"
)

// The edge-case suite: sweep shapes the golden grids never exercise —
// empty and single-design sweeps, cancellation, per-design failures,
// ablation flags and quantized weights — all held to the same standard
// as the happy path: bit-for-bit agreement with the scalar simulator.

// edgeGrid builds a small sweep with every group axis varied, so even a
// handful of designs exercises the full group-discovery machinery.
func edgeGrid(tb testing.TB) []arch.Config {
	tb.Helper()
	var cfgs []arch.Config
	for _, dim := range []int{16, 32} {
		for _, lanes := range []int{1, 4} {
			cores, err := arch.MaxCoresForTPP(4800, lanes, dim, dim, arch.A100ClockGHz)
			if err != nil {
				tb.Fatal(err)
			}
			for _, l1 := range []int{192, 1024} {
				for _, l2 := range []int{32, 80} {
					for _, hbm := range []float64{2000, 3200} {
						cfgs = append(cfgs, arch.Config{
							Name:            fmt.Sprintf("edge-%dx%d-l%d", dim, lanes, len(cfgs)),
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
	return cfgs // 32 designs
}

// scalarResults evaluates every design through the scalar simulator — the
// reference every batch outcome is compared against.
func scalarResults(tb testing.TB, s *sim.Simulator, cfgs []arch.Config, g ir.Graph) []sim.Result {
	tb.Helper()
	out := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := s.SimulateGraph(cfg, g)
		if err != nil {
			tb.Fatalf("scalar design %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

// requireResultEqual compares one batch result to its scalar reference at
// the float-bit level, including every per-operator Time.
func requireResultEqual(t *testing.T, d int, got, want sim.Result) {
	t.Helper()
	for _, f := range []struct {
		name     string
		got, try float64
	}{
		{"TTFTSeconds", got.TTFTSeconds, want.TTFTSeconds},
		{"TBTSeconds", got.TBTSeconds, want.TBTSeconds},
		{"PrefillMFU", got.PrefillMFU, want.PrefillMFU},
		{"DecodeMFU", got.DecodeMFU, want.DecodeMFU},
	} {
		if bitsDiffer(f.got, f.try) {
			t.Fatalf("design %d: %s = %v (bits %x), scalar %v (bits %x)",
				d, f.name, f.got, math.Float64bits(f.got), f.try, math.Float64bits(f.try))
		}
	}
	requireOpsEqual(t, d, "PrefillOps", got.PrefillOps, want.PrefillOps)
	requireOpsEqual(t, d, "DecodeOps", got.DecodeOps, want.DecodeOps)
}

func requireOpsEqual(t *testing.T, d int, phase string, got, want []perf.Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("design %d: %s has %d ops, scalar %d", d, phase, len(got), len(want))
	}
	for j := range got {
		a, b := got[j], want[j]
		if a.Name != b.Name || a.FeedLimited != b.FeedLimited ||
			bitsDiffer(a.Seconds, b.Seconds) ||
			bitsDiffer(a.ComputeSeconds, b.ComputeSeconds) ||
			bitsDiffer(a.DRAMSeconds, b.DRAMSeconds) ||
			bitsDiffer(a.CommSeconds, b.CommSeconds) ||
			bitsDiffer(a.FLOPs, b.FLOPs) ||
			bitsDiffer(a.DRAMBytes, b.DRAMBytes) {
			t.Fatalf("design %d: %s[%d] = %+v, scalar %+v", d, phase, j, a, b)
		}
	}
}

func lowerGPT3(tb testing.TB) ir.Graph {
	tb.Helper()
	g, err := ir.Lower(model.PaperWorkload(model.GPT3_175B()))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestSweepEmptyGrid pins that a zero-design sweep succeeds vacuously.
func TestSweepEmptyGrid(t *testing.T) {
	ev := &batch.Evaluator{Engine: sim.New().Engine}
	out, err := ev.Sweep(context.Background(), nil, lowerGPT3(t))
	if err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	if len(out.Results) != 0 || len(out.Done) != 0 || out.Errs != nil {
		t.Fatalf("empty sweep produced non-empty outcome: %+v", out)
	}
}

// TestSweepSingleDesign pins the degenerate sweep where every group has
// exactly one member.
func TestSweepSingleDesign(t *testing.T) {
	s := sim.New()
	g := lowerGPT3(t)
	cfgs := edgeGrid(t)[:1]
	want := scalarResults(t, s, cfgs, g)
	out, err := (&batch.Evaluator{Engine: s.Engine}).Sweep(context.Background(), cfgs, g)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done[0] {
		t.Fatal("single design not evaluated")
	}
	requireResultEqual(t, 0, out.Results[0], want[0])
}

// TestSweepAlreadyCancelled pins that a dead context stops the sweep
// before any design is evaluated, at the batch layer and through the dse
// facade's error shape.
func TestSweepAlreadyCancelled(t *testing.T) {
	s := sim.New()
	g := lowerGPT3(t)
	cfgs := edgeGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := (&batch.Evaluator{Engine: s.Engine}).Sweep(ctx, cfgs, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	for d, done := range out.Done {
		if done {
			t.Fatalf("design %d evaluated under an already-cancelled context", d)
		}
	}
}

// TestSweepInvalidDesignIsolated pins that one invalid design fails alone:
// its raw validation error lands in Errs and every other design still
// evaluates, bit-equal to the scalar reference.
func TestSweepInvalidDesignIsolated(t *testing.T) {
	s := sim.New()
	g := lowerGPT3(t)
	cfgs := edgeGrid(t)
	want := scalarResults(t, s, cfgs, g)
	bad := len(cfgs) / 2
	cfgs[bad].CoreCount = 0
	wantErr := cfgs[bad].Validate()
	if wantErr == nil {
		t.Fatal("test config unexpectedly valid")
	}
	out, err := (&batch.Evaluator{Engine: s.Engine}).Sweep(context.Background(), cfgs, g)
	if err != nil {
		t.Fatalf("per-design failures must not fail the sweep: %v", err)
	}
	if out.Done[bad] || out.Errs == nil || out.Errs[bad] == nil {
		t.Fatalf("invalid design %d: Done=%v Errs=%v, want an isolated error", bad, out.Done[bad], out.Errs)
	}
	if out.Errs[bad].Error() != wantErr.Error() {
		t.Fatalf("invalid design error = %q, scalar validation says %q", out.Errs[bad], wantErr)
	}
	for d := range cfgs {
		if d == bad {
			continue
		}
		if !out.Done[d] {
			t.Fatalf("valid design %d skipped because of design %d", d, bad)
		}
		requireResultEqual(t, d, out.Results[d], want[d])
	}
}

// bogusOp is an operator no backend knows how to time.
type bogusOp struct{}

func (bogusOp) OpName() string { return "bogus" }

// TestSweepUnknownOpMatchesScalar pins the per-design error for a graph
// containing an unknown operator: same failure, same message as the
// scalar simulator, and no partial sums stored.
func TestSweepUnknownOpMatchesScalar(t *testing.T) {
	s := sim.New()
	w := model.PaperWorkload(model.GPT3_175B())
	g := ir.Graph{Workload: w, Nodes: []ir.Node{
		{Op: perf.Matmul{Name: "qkv", Batch: 1, M: 64, K: 64, N: 64}, Phase: ir.Prefill},
		{Op: bogusOp{}, Phase: ir.Prefill},
		{Op: bogusOp{}, Phase: ir.Decode},
	}}
	cfgs := edgeGrid(t)[:2]
	_, wantErr := s.SimulateGraph(cfgs[0], g)
	if wantErr == nil {
		t.Fatal("scalar simulator accepted the unknown operator")
	}
	out, err := (&batch.Evaluator{Engine: s.Engine}).Sweep(context.Background(), cfgs, g)
	if err != nil {
		t.Fatalf("per-design failures must not fail the sweep: %v", err)
	}
	for d := range cfgs {
		if out.Done[d] || out.Errs == nil || out.Errs[d] == nil {
			t.Fatalf("design %d: Done=%v, want the unknown-op error", d, out.Done[d])
		}
		if out.Errs[d].Error() != wantErr.Error() {
			t.Fatalf("design %d error = %q, scalar says %q", d, out.Errs[d], wantErr)
		}
	}
}

// TestSweepAblationsBitEqual runs the engine's model ablations (naive L1
// tiling, worst-case DRAM traffic) through both paths: the flags change
// which perf functions run, so each needs its own equality check.
func TestSweepAblationsBitEqual(t *testing.T) {
	g := lowerGPT3(t)
	cfgs := edgeGrid(t)
	for _, tc := range []struct {
		name string
		mut  func(*perf.Engine)
	}{
		{"naive_l1_tiling", func(e *perf.Engine) { e.NaiveL1Tiling = true }},
		{"naive_dram_traffic", func(e *perf.Engine) { e.NaiveDRAMTraffic = true }},
		{"both", func(e *perf.Engine) { e.NaiveL1Tiling = true; e.NaiveDRAMTraffic = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := perf.Default()
			tc.mut(eng)
			s := &sim.Simulator{Engine: eng}
			want := scalarResults(t, s, cfgs, g)
			out, err := (&batch.Evaluator{Engine: eng}).Sweep(context.Background(), cfgs, g)
			if err != nil {
				t.Fatal(err)
			}
			for d := range cfgs {
				if !out.Done[d] {
					t.Fatalf("design %d not evaluated", d)
				}
				requireResultEqual(t, d, out.Results[d], want[d])
			}
		})
	}
}

// TestSweepQuantizedWeightsBitEqual covers the WeightBits=8 lowering,
// whose halved weight traffic exercises different blocking solutions.
func TestSweepQuantizedWeightsBitEqual(t *testing.T) {
	w := model.PaperWorkload(model.GPT3_175B())
	w.WeightBits = 8
	g, err := ir.Lower(w)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	cfgs := edgeGrid(t)
	want := scalarResults(t, s, cfgs, g)
	out, err := (&batch.Evaluator{Engine: s.Engine}).Sweep(context.Background(), cfgs, g)
	if err != nil {
		t.Fatal(err)
	}
	for d := range cfgs {
		if !out.Done[d] {
			t.Fatalf("design %d not evaluated", d)
		}
		requireResultEqual(t, d, out.Results[d], want[d])
	}
}

// TestConcurrentSweeps hammers one shared evaluator from many goroutines,
// each sweeping into an Outcome of its own (the concurrency contract;
// run under -race in CI's race-stress job), and checks every concurrent
// outcome against the scalar reference.
func TestConcurrentSweeps(t *testing.T) {
	s := sim.New()
	g := lowerGPT3(t)
	cfgs := edgeGrid(t)
	want := scalarResults(t, s, cfgs, g)
	ev := &batch.Evaluator{Engine: s.Engine}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	outs := make([]batch.Outcome, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ev.Sweep(context.Background(), cfgs, g)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for d := range cfgs {
			if !outs[i].Done[d] {
				t.Fatalf("goroutine %d: design %d not evaluated", i, d)
			}
			requireResultEqual(t, d, outs[i].Results[d], want[d])
		}
	}
}
