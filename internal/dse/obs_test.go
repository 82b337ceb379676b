package dse

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/obs"
)

func attrValue(sr obs.SpanRecord, key string) (any, bool) {
	for _, a := range sr.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// TestEvaluateContextSpanPropagation pins the worker hand-off: the sweep
// fans its windows out over goroutines, and every dse.window span must
// still join the caller's trace under its dse.sweep, carrying hit/miss
// tallies that flip between a cold and a warm run.
func TestEvaluateContextSpanPropagation(t *testing.T) {
	rec := obs.NewRecorder(0)
	ctx, root := obs.Start(obs.WithRecorder(context.Background(), rec), "test.root")
	e := NewExplorer()
	e.Parallelism = 4
	w := model.PaperWorkload(model.Llama3_8B())
	configs := Table3(4800, []float64{600}).Expand() // several windows

	seen := 0
	for run, want := range []string{"misses", "hits"} {
		pts, err := e.EvaluateContext(ctx, configs, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(configs) {
			t.Fatalf("run %d: %d points, want %d", run, len(pts), len(configs))
		}
		// The cold run simulates every design; the warm run serves every
		// design from memory — each window's tally says so.
		spans := rec.Spans()
		windows, covered := 0, 0
		for _, sr := range spans[seen:] {
			if sr.Name != "dse.window" {
				continue
			}
			windows++
			n, _ := attrValue(sr, "configs")
			got, _ := attrValue(sr, want)
			if got != n {
				t.Errorf("run %d: window has %s = %v of %v configs", run, want, got, n)
			}
			covered += n.(int)
		}
		seen = len(spans)
		if windows < 2 || covered != len(configs) {
			t.Errorf("run %d: %d windows covering %d designs, want several covering %d",
				run, windows, covered, len(configs))
		}
	}
	root.End()

	spans := rec.Trace(root.Trace())
	byID := map[string]obs.SpanRecord{}
	byName := map[string][]obs.SpanRecord{}
	for _, sr := range spans {
		byID[sr.Span] = sr
		byName[sr.Name] = append(byName[sr.Name], sr)
	}
	// Two sweeps under one root, each lowering once.
	if got := len(byName["dse.sweep"]); got != 2 {
		t.Errorf("dse.sweep spans = %d, want 2", got)
	}
	if got := len(byName["dse.lower"]); got != 2 {
		t.Errorf("dse.lower spans = %d, want 2", got)
	}
	// Parent links survive the goroutine hand-off: every dse.window hangs
	// off a dse.sweep inside the root's trace.
	if len(byName["dse.window"]) == 0 {
		t.Fatal("no dse.window spans in the trace")
	}
	for _, sr := range byName["dse.window"] {
		if sr.Trace != root.Trace() {
			t.Fatalf("dse.window escaped the trace: %+v", sr)
		}
		if byID[sr.Parent].Name != "dse.sweep" {
			t.Errorf("dse.window parent = %q, want dse.sweep", byID[sr.Parent].Name)
		}
	}
}

// TestBackendSweepTracesEachSimulation pins the per-design path: with an
// explicit Sim.Backend every missed design runs through
// Sim.SimulateGraphContext, so each one leaves a sim.simulate span under
// its window and the per-node backend histogram sees every timed node.
func TestBackendSweepTracesEachSimulation(t *testing.T) {
	rec := obs.NewRecorder(0)
	ctx, root := obs.Start(obs.WithRecorder(context.Background(), rec), "test.root")
	e := NewExplorer()
	e.Sim.Backend = ir.Analytic{Engine: e.Sim.Engine}
	configs := smallGrid(4800).Expand()
	if _, err := e.EvaluateContext(ctx, configs, model.PaperWorkload(model.Llama3_8B())); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Trace(root.Trace())
	byID := map[string]obs.SpanRecord{}
	for _, sr := range spans {
		byID[sr.Span] = sr
	}
	simulated := 0
	for _, sr := range spans {
		if sr.Name != "sim.simulate" {
			continue
		}
		simulated++
		if parent := byID[sr.Parent]; parent.Name != "dse.window" {
			t.Errorf("sim.simulate parent = %q, want dse.window", parent.Name)
		}
		if _, ok := attrValue(sr, "config"); !ok {
			t.Errorf("sim.simulate span lost its config attr: %+v", sr)
		}
	}
	if simulated != len(configs) {
		t.Errorf("sim.simulate spans = %d, want one per design (%d)", simulated, len(configs))
	}
	for _, st := range rec.StageStats() {
		if st.Stage != "ir.backend" {
			continue
		}
		if st.Count == 0 || st.Count%uint64(len(configs)) != 0 {
			t.Errorf("ir.backend count = %d, want a positive multiple of %d", st.Count, len(configs))
		}
		return
	}
	t.Error("no ir.backend stage recorded")
}

// TestEvaluateWithoutRecorderStaysSilent pins the disabled fast path at
// the dse layer: no recorder in the context means no spans and no
// histograms anywhere downstream.
func TestEvaluateWithoutRecorderStaysSilent(t *testing.T) {
	e := NewExplorer()
	w := model.PaperWorkload(model.Llama3_8B())
	if _, err := e.EvaluateContext(context.Background(), smallGrid(4800).Expand(), w); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert on a recorder — there is none; the test's value
	// is that the instrumented path runs clean with tracing off, and
	// (under -race) that the nil fast path is race-free.
}

// TestWindowStagesTimedOncePerWindow pins the sweep's timing to its
// windows: a warm Table 5 sweep (2304 designs, 72 windows) under a fresh
// recorder leaves no stage histogram with more samples than windows, so
// nothing on the warm path observes per design, and each dse.window span
// carries every stage's time. A cold sweep times its evaluation and
// finishing stages in every window that missed.
func TestWindowStagesTimedOncePerWindow(t *testing.T) {
	e := NewExplorer()
	w := model.PaperWorkload(model.GPT3_175B())
	configs := Table5().Expand()
	windows := (len(configs) + 31) / 32
	for _, run := range []string{"cold", "warm"} {
		rec := obs.NewRecorder(0)
		if _, err := e.EvaluateContext(obs.WithRecorder(context.Background(), rec), configs, w); err != nil {
			t.Fatal(err)
		}
		stages := map[string]uint64{}
		for _, st := range rec.StageStats() {
			stages[st.Stage] = st.Count
			if st.Count > uint64(windows) {
				t.Errorf("%s: stage %s has %d samples, more than the sweep's %d windows", run, st.Stage, st.Count, windows)
			}
		}
		want := []string{"dse.window.probe", "dse.window.emit"}
		if run == "cold" {
			want = append(want, "dse.window.evaluate", "dse.window.finish")
		}
		for _, stage := range want {
			if stages[stage] != uint64(windows) {
				t.Errorf("%s: stage %s has %d samples, want one per window (%d)", run, stage, stages[stage], windows)
			}
		}
		spans := 0
		for _, sr := range rec.Spans() {
			if sr.Name != "dse.window" {
				continue
			}
			spans++
			for _, attr := range []string{"probe_us", "evaluate_us", "finish_us", "emit_us"} {
				if v, ok := attrValue(sr, attr); !ok || v.(int) < 0 {
					t.Errorf("%s: dse.window span has %s = %v", run, attr, v)
				}
			}
		}
		if spans != windows {
			t.Errorf("%s: %d dse.window spans, want %d", run, spans, windows)
		}
	}
}
