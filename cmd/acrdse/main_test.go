package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsUnknownRuleBeforeWork checks that an unknown -rule fails
// with the other flag checks: before the sweep runs and before -trace
// writes its dump.
func TestRunRejectsUnknownRuleBeforeWork(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "tr.json")
	err := run(options{
		tpp: 4800, model: "gpt3", rule: "bogus", objective: "ttft", top: 5,
		engine: "grid", budget: 256, space: "table3", eval: "scalar", traceOut: trace,
	})
	if err == nil || !strings.Contains(err.Error(), `unknown rule "bogus"`) {
		t.Fatalf("run with rule bogus: err = %v, want an unknown-rule error", err)
	}
	if _, serr := os.Stat(trace); !errors.Is(serr, fs.ErrNotExist) {
		t.Errorf("run with rule bogus left a trace file (stat: %v)", serr)
	}
}
