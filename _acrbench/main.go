// Command acrbench is the repository's benchmark: it starts acrserve's
// default configuration in process behind a loopback httptest server,
// drives one seeded workload through the public HTTP API, checks every
// answer, and prints the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run with an in-process replay (-trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources.
// See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dse"
)

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: dse-cold, dse-warm, search-jan2025 or classify")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds (whole rounds; at least three)")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		out     = flag.String("out", ".bench_build/acrbench-out", "directory for span dumps")
		commit  = flag.String("commit", "", "commit of the measured checkout, for the environment block")
	)
	flag.Parse()
	w, err := newWorkload(*name, *seed)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrbench:", err)
		return 2
	}
	ctx := context.Background()

	e := readEnv(*seed, *commit)
	control := hostControl()
	fmt.Printf("env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s seed=%d workload=%s trace=%d\n",
		e.CPU, e.NProc, e.GOMAXPROCS, e.Go, e.Commit, e.Tree, e.Seed, w.name, *trace)
	fmt.Printf("host.control_ms %.4f\n", control)

	fails := selfTest(w.name, *seed)
	if w.name == wlWarm {
		n, _ := warmSetCoverage()
		fmt.Printf("warm set: %d unique points (dse.DefaultCacheEntries = %d)\n", n, dse.DefaultCacheEntries)
	}
	rounds, runFails, err := measure(w, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrbench:", err)
		return 1
	}
	fails = append(fails, runFails...)
	fails = append(fails, runWideChecks(w.name, rounds)...)
	refFails, compared := referenceChecks(ctx, rounds, *seed)
	res := result{Metrics: map[string]metric{}}
	for _, rd := range rounds {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		fails = append(fails, rd.fails...)
	}
	// A reference mismatch fails an answer that passed its own checks.
	res.Failed += len(refFails)
	fails = append(fails, refFails...)
	failShare := float64(res.Failed) / float64(res.Attempted)
	e2e := endToEnd(w, rounds)
	printEndToEnd(w, e2e, res.Attempted, len(rounds), failShare)
	fmt.Printf("checks: every answer checked; %d jobs compared with in-process references; %d checks failed\n", compared, len(fails))

	if *trace == 1 {
		layers, err := traced(ctx, w, rounds, e2e, control, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acrbench:", err)
			return 1
		}
		fails = append(fails, layers.fails...)
		res.Metrics = layers.metrics
	} else {
		for _, m := range e2e.json {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	const maxPrinted = 20
	for i, f := range fails {
		if i == maxPrinted {
			fmt.Printf("FAIL: ... and %d more\n", len(fails)-maxPrinted)
			break
		}
		fmt.Println("FAIL:", f)
	}
	res.Correct = len(fails) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// minRounds keeps the per-round medians (setup, heap) meaningful on
// short runs.
const minRounds = 3

// measure runs whole rounds until the time budget is spent. Each round
// serves a fixed count of ops from the seeded stream on a fresh server,
// so every per-round number depends on the job count, not on speed. It
// also returns the generator contracts the sent ops broke.
func measure(w *workload, budget time.Duration) ([]*round, []string, error) {
	var rounds []*round
	check := newRunChecker()
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		ops := make([]*op, 0, w.perRound)
		for len(ops) < w.perRound {
			o := w.gen.next()
			if o == nil {
				break
			}
			ops = append(ops, o)
			check.add(o)
		}
		if len(ops) < w.perRound {
			break // the stream is exhausted: dse-cold drew every workload tuple
		}
		rd, err := runRound(w, n, ops)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, rd)
	}
	return rounds, check.fails, nil
}

// runWideChecks are the checks that only /metrics can make: dse-warm
// must never simulate during the timed phase.
func runWideChecks(name string, rounds []*round) []string {
	var fails []string
	if name != wlWarm {
		return nil
	}
	for _, rd := range rounds {
		if d := rd.store.cacheMisses; d != 0 {
			fails = append(fails, fmt.Sprintf("dse-warm round %d: /metrics cache misses grew by %d during the timed phase", rd.n, d))
		}
	}
	return fails
}

type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// e2eResult holds the end-to-end metrics: json in BENCHMARK.json's
// names, report in the names the workload's docs use.
type e2eResult struct {
	json   []named
	report []named
	jobMS  float64 // job_ms_p50 (req_ms_p50 on classify)
}

func endToEnd(w *workload, rounds []*round) e2eResult {
	var p50, p90, first, setup, heap, rate []float64
	ops := 0
	for _, rd := range rounds {
		setup = append(setup, rd.setup.Seconds())
		heap = append(heap, float64(rd.heapPeak)/1e6)
		p50 = append(p50, rd.p50)
		p90 = append(p90, rd.p90)
		first = append(first, rd.first50)
		rate = append(rate, float64(rd.designs)/rd.measured.Seconds())
		ops += rd.attempted
	}
	// Every round serves the same op mix, so per-round figures are
	// comparable; their median shrugs off rounds that lost the CPU.
	n := fmt.Sprintf("median of %d rounds, %d ops", len(rounds), ops)
	r := e2eResult{
		json: []named{
			{"setup_s", median(setup), "s", fmt.Sprintf("median of %d rounds", len(rounds))},
			{"job_ms_p50", median(p50), "ms", n},
			{"job_ms_p90", median(p90), "ms", n},
			{"first_frame_ms_p50", median(first), "ms", n},
			{"designs_per_s", median(rate), "1/s", fmt.Sprintf("median of %d rounds", len(rounds))},
			{"heap_peak_mb", median(heap), "MB", fmt.Sprintf("median of %d round peaks", len(rounds))},
		},
		jobMS: median(p50),
	}
	r.report = append(r.report, r.json...)
	if w.name == wlClassify {
		// On classify a job is one request: the report uses the request
		// names for the same numbers.
		r.report = []named{
			r.json[0],
			{"req_ms_p50", r.json[1].value, "ms", n},
			{"req_ms_p90", r.json[2].value, "ms", n},
			{"req_per_s", r.json[4].value, "1/s", r.json[4].note},
			{"first_byte_ms_p50", r.json[3].value, "ms", n},
			r.json[5],
		}
	}
	return r
}

func printEndToEnd(w *workload, r e2eResult, attempted, rounds int, failShare float64) {
	fmt.Printf("workload %s: %d clients, %d rounds x %d ops, fresh server per round\n", w.name, w.clients, rounds, w.perRound)
	for _, m := range r.report {
		fmt.Printf("  %-22s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Printf("  %-22s %14.4f %-5s of %d attempted\n", "fail_share", failShare, "ratio", attempted)
}
