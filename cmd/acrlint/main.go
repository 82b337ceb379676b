// Command acrlint runs the repo-specific static-analysis suite from
// internal/lint over the module: memo-key coverage, unit-suffix safety,
// cache lock discipline, float-equality hygiene, context threading and
// helper deduplication (v1), plus the CFG/dataflow checks for goroutine
// join coverage, map-iteration-order determinism, hot-path allocation
// freedom and span start/End path coverage (v2).
//
// Usage:
//
//	go run ./cmd/acrlint [-json] [-checks memokey,unitsafe,...] [-list] [packages]
//
// Packages default to ./... . Diagnostics print as
// file:line:col: [check] message and make the command exit 1; a clean tree
// exits 0. Individual findings are waived in source with
//
//	//lint:ignore <check>[,<check>] <reason>
//
// on the offending line or the line above — the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("checks", "all", "comma-separated analyzer names to run")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: acrlint [-json] [-checks a,b] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog, err := lint.Load(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := prog.Run(analyzers)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "acrlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("acrlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
