package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
)

// TestRunRejectsUnknownRuleBeforeWork checks that an unknown -rule fails
// with the other flag checks: before the sweep runs and before -trace
// writes its dump.
func TestRunRejectsUnknownRuleBeforeWork(t *testing.T) {
	rejectsBeforeWork(t, options{
		tpp: 4800, model: "gpt3", rule: "bogus", objective: "ttft", top: 5,
		engine: "grid", budget: 256, space: "table3", eval: "scalar",
	}, `unknown rule "bogus"`)
}

// TestRunRejectsUnknownObjectiveBeforeWork checks the same for
// -objective on an adaptive engine, whose search never reads it.
func TestRunRejectsUnknownObjectiveBeforeWork(t *testing.T) {
	rejectsBeforeWork(t, options{
		tpp: 4800, model: "gpt3", rule: "oct2022", objective: "bogus", top: 5,
		engine: "nsga2", budget: 8, space: "table3", eval: "scalar",
	}, `unknown objective "bogus"`)
}

// TestRunRefusesOutOfRangeBudget checks that a TPP budget whose core
// counts an int cannot hold fails the run with arch.ErrOutOfRange on the
// exhaustive sweep and on an adaptive engine alike, before any work, so
// acrdse exits non-zero instead of printing an empty design table or a
// search of no designs, and -trace writes no file.
func TestRunRefusesOutOfRangeBudget(t *testing.T) {
	for _, o := range []options{
		{tpp: 1e30, model: "gpt3", rule: "oct2022", objective: "ttft", top: 5,
			engine: "grid", budget: 256, space: "table3", eval: "scalar"},
		{tpp: 1e30, model: "gpt3", rule: "oct2022", objective: "ttft", top: 5,
			engine: "nsga2", budget: 8, space: "table3", eval: "scalar"},
	} {
		err := rejectsBeforeWork(t, o, "at TPP budget 1e+30")
		if !errors.Is(err, arch.ErrOutOfRange) {
			t.Errorf("run with engine %s at tpp 1e30: err = %v, want arch.ErrOutOfRange", o.engine, err)
		}
	}
}

// rejectsBeforeWork runs o with -trace set, checks that it fails with an
// error containing want and writes no trace file, and returns the error.
func rejectsBeforeWork(t *testing.T, o options, want string) error {
	t.Helper()
	o.traceOut = filepath.Join(t.TempDir(), "tr.json")
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run(%+v): err = %v, want %s", o, err, want)
	}
	if _, serr := os.Stat(o.traceOut); !errors.Is(serr, fs.ErrNotExist) {
		t.Errorf("run(%+v) left a trace file (stat: %v)", o, serr)
	}
	return err
}
