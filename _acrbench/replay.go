package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/batch"
	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// ---- benchmark-owned spans ----

// spanRec is one span the benchmark recorded around a call into a layer
// (or, for the service's own phases, between two timestamps it reported).
type spanRec struct {
	Trace  string  `json:"trace"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only: client spans are built from the samples' timestamps
// after the rounds, and the replay is sequential.
type tracer struct {
	t0    time.Time
	spans []spanRec
}

func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0)),
	})
	return id
}

// open starts a span whose end is set by close.
func (t *tracer) open(trace string, parent int, name string, start time.Time) int {
	return t.add(trace, parent, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.spans[id-1].End = us(end.Sub(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover, in µs.
func (t *tracer) selfTimes() map[string]float64 {
	kids := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			c := t.spans[k-1]
			lo, hi := math.Max(c.Start, s.Start), math.Min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, math.Inf(-1)
		for _, x := range iv {
			lo := math.Max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
			}
			reach = math.Max(reach, x[1])
		}
		// Children that tile their parent leave only rounding error.
		out[s.Name] += max(0, s.End-s.Start-covered)
	}
	return out
}

// ---- the traced run ----

type layerResult struct {
	metrics map[string]metric
	fails   []string
}

// perLayer lists BENCHMARK.json's per-layer metrics in print order. A
// layer the workload leaves idle reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.run_ms_p50", "ms"},
	{"server.delivery_ms_p50", "ms"},
	{"server.point_frames_per_design", "ratio"},
	{"server.frame_encode_us", "us"},
	{"server.coalesced_share", "ratio"},
	{"server.request_overhead_us", "us"},
	{"server.refused", "count"},
	{"dse.sweep_ms_p50", "ms"},
	{"dse.expand_us", "us"},
	{"dse.evaluate_us_per_design", "us"},
	{"dse.finish_us_per_design", "us"},
	{"dse.rank_us", "us"},
	{"ir.lower_us", "us"},
	{"sim.simulate_us_per_design", "us"},
	{"batch.sweep_us_per_design", "us"},
	{"perf.memo_entries", "count"},
	{"perf.memo_hit_ratio", "ratio"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.evictions_per_job", "count"},
	{"store.mem_mb", "MB"},
	{"search.run_ms_p50", "ms"},
	{"search.propose_us_per_gen", "us"},
	{"search.observe_us_per_gen", "us"},
	{"search.generations_per_job", "count"},
	{"search.revisit_share", "ratio"},
	{"obs.sweep_overhead_share", "ratio"},
	{"obs.spans_per_design", "count"},
	{"policy.classify_us", "us"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"host.control_ms", "ms"},
}

// replayTotals accumulates the replay's per-layer time and work counts
// over the replayed ops.
type replayTotals struct {
	ops                         int
	expand, lower, rank, encode time.Duration
	// get is every store probe, getHit the probes that hit.
	get, getHit, sim, finish, put time.Duration
	hits, misses, puts            int
	finished, encoded             int
	// evalRec/evalPlain: the same evaluations with and without a
	// recorder (EvaluateContext for sweeps, Runner.Run for searches);
	// sweepEval: EvaluateContext wall time.
	evalRec, evalPlain, sweepEval, sweepBatch time.Duration
	designs, batchDesigns, spans, lowered     int
	runs                                      []float64 // search.Runner.Run wall, ms
	propose, observe                          time.Duration
	gens                                      int
	policy                                    time.Duration
	bodies                                    int
}

// accountRow is one replayed job's time split: the service's own phases
// around the run, and the replayed layers standing in for the run.
type accountRow struct {
	job, pre, queue, run, layers, delivery time.Duration
}

// traced builds the per-layer metrics from the client-side spans, the
// service's reported timestamps and counters, and an in-process replay
// of the first round on mirror state.
func traced(ctx context.Context, w *workload, rounds []*round, e2e e2eResult, control float64, outDir string) (*layerResult, error) {
	tr := &tracer{t0: rounds[0].started}
	clientSpans(tr, rounds)
	rp := newReplayer(tr)
	var fails []string
	var acct []accountRow
	var err error
	switch w.name {
	case wlCold, wlWarm:
		fails, acct, err = rp.replayDSE(ctx, w, rounds[0])
	case wlSearch:
		fails, acct, err = rp.replaySearch(ctx, rounds[0])
	case wlClassify:
		rp.replayClassify(rounds[0])
	}
	if err != nil {
		return nil, err
	}
	m := layerMetrics(w, rounds, rp.t, e2e, control)
	printLayers(w, m, rp.t, acct, e2e, tr)
	if err := writeSpans(outDir, w, tr); err != nil {
		return nil, err
	}
	return &layerResult{metrics: m, fails: fails}, nil
}

// clientSpans turns every kept sample's timestamps into spans: the
// client's view of the job, tiled by the service's own phases.
func clientSpans(tr *tracer, rounds []*round) {
	for _, rd := range rounds {
		for i, s := range rd.kept {
			if !s.ok() {
				continue
			}
			trace := fmt.Sprintf("op-%d-%d", rd.n, i)
			root := tr.add(trace, 0, "client.op", s.sent, s.done)
			if s.op.kind == kindClassify {
				tr.add(trace, root, "http.response_headers", s.sent, s.headers)
				tr.add(trace, root, "http.response_body", s.headers, s.done)
				continue
			}
			tr.add(trace, 0, "client.post", s.sent, s.accepted)
			tr.add(trace, root, "server.submit", s.sent, s.created)
			tr.add(trace, root, "server.queue_wait", s.created, s.started)
			tr.add(trace, root, "server.run", s.started, s.finished)
			tr.add(trace, root, "server.delivery", s.finished, s.done)
		}
	}
}

// replayer re-executes a round's ops through the layers' public
// functions on mirror state built the way server.New builds its own:
//   - a: the decomposed sweep (Grid.Expand, ir.Lower, store.Tiered
//     Get/Put, Simulator.SimulateGraphContext, point finishing), or the
//     search.Runner with a recorder and a timing engine wrapper;
//   - b: Explorer.EvaluateContext with an obs.Recorder in the context;
//   - c: the same without a recorder (obs.sweep_overhead_share);
//   - be: batch.Evaluator.Sweep over a's misses, on its own engine.
//
// a, b and c see the same op sequence, so their caches and memos evolve
// alike and as the server's do. rec is long-lived at the default
// capacity, like the server's recorder.
type replayer struct {
	tr      *tracer
	a, b, c *dse.Explorer
	be      *batch.Evaluator
	rec     *obs.Recorder
	t       replayTotals
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, a: dse.NewExplorer(), b: dse.NewExplorer(), c: dse.NewExplorer(),
		be: &batch.Evaluator{Engine: perf.Default()}, rec: obs.NewRecorder(0)}
}

// spansRecorded counts every span rec has finished: those retained in
// its ring plus those the ring bound overwrote.
func (rp *replayer) spansRecorded() int {
	return len(rp.rec.Spans()) + int(rp.rec.Dropped())
}

// replayDSE mirrors dse-cold and dse-warm: the warm set first (untimed),
// then the round's jobs in the order the server started them.
func (rp *replayer) replayDSE(ctx context.Context, w *workload, rd *round) ([]string, []accountRow, error) {
	for _, o := range w.setup {
		if _, _, _, err := rp.dseOp(ctx, "replay-setup", o, false); err != nil {
			return nil, nil, err
		}
	}
	jobs := append([]*sample(nil), rd.kept...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].started.Before(jobs[j].started) })
	var fails []string
	var acct []accountRow
	for i, s := range jobs {
		if !s.ok() {
			continue
		}
		hits, misses, layers, err := rp.dseOp(ctx, fmt.Sprintf("replay-%d", i), s.op, true)
		if err != nil {
			return nil, nil, err
		}
		if w.clients == 1 && (uint64(hits) != s.dse.CacheHits || uint64(misses) != s.dse.CacheMisses) {
			fails = append(fails, fmt.Sprintf("replay mirror: job %d hits/misses %d/%d, service reported %d/%d",
				i, hits, misses, s.dse.CacheHits, s.dse.CacheMisses))
		}
		acct = append(acct, account(s, layers))
	}
	return fails, acct, nil
}

// account splits one job's client-seen time into the service's phases,
// with the replayed layers standing in for the run.
func account(s *sample, layers time.Duration) accountRow {
	return accountRow{
		job: s.done.Sub(s.sent), pre: s.created.Sub(s.sent), queue: s.started.Sub(s.created),
		run: s.finished.Sub(s.started), layers: layers, delivery: s.done.Sub(s.finished),
	}
}

// dseOp replays one sweep on every mirror. It returns mirror a's cache
// hits and misses and the replayed layer time that stands in for the
// service's run (Grid.Expand + EvaluateContext + ranking). With timed
// false (the warm-set set-up) it only evolves the mirrors.
func (rp *replayer) dseOp(ctx context.Context, trace string, o *op, timed bool) (hits, misses int, layers time.Duration, err error) {
	g, err := gridOf(*o.dse)
	if err != nil {
		return 0, 0, 0, err
	}
	wl, err := workloadOf(o.dse.Workload)
	if err != nil {
		return 0, 0, 0, err
	}
	tr := rp.tr
	t := &rp.t
	if !timed {
		t = &replayTotals{}
	}
	root := tr.open(trace, 0, "replay.dse", time.Now())

	t0 := time.Now()
	cfgs := g.Expand()
	t1 := time.Now()
	graph, err := ir.Lower(wl)
	t2 := time.Now()
	if err != nil {
		return 0, 0, 0, err
	}
	tr.add(trace, root, "dse.expand", t0, t1)
	tr.add(trace, root, "ir.lower", t1, t2)
	t.expand += t1.Sub(t0)
	t.lower += t2.Sub(t1)
	t.lowered++

	// Mirror a: the sweep decomposed into the public calls it is made of.
	wh := ir.WorkloadHash(wl)
	points := make([]dse.Point, len(cfgs))
	var missCfgs []arch.Config
	eval := tr.open(trace, root, "dse.evaluate.decomposed", time.Now())
	for i, cfg := range cfgs {
		key := store.Key{Hi: ir.ConfigHash(cfg), Lo: wh}
		a := time.Now()
		p, ok := rp.a.Cache.Get(ctx, key)
		b := time.Now()
		tr.add(trace, eval, "store.get", a, b)
		t.get += b.Sub(a)
		if ok {
			t.getHit += b.Sub(a)
			hits++
			p.Config, p.Result.Config = cfg, cfg
			points[i] = p
			continue
		}
		misses++
		res, err := rp.a.Sim.SimulateGraphContext(ctx, cfg, graph)
		c := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		p = finishPoint(rp.a, cfg, res)
		d := time.Now()
		rp.a.Cache.Put(ctx, key, p)
		e := time.Now()
		tr.add(trace, eval, "sim.simulate", b, c)
		tr.add(trace, eval, "dse.finish", c, d)
		tr.add(trace, eval, "store.put", d, e)
		t.sim += c.Sub(b)
		t.finish += d.Sub(c)
		t.put += e.Sub(d)
		points[i] = p
		missCfgs = append(missCfgs, cfg)
	}
	tr.close(eval, time.Now())
	t.hits += hits
	t.misses += misses
	t.puts += misses
	t.finished += misses

	t3 := time.Now()
	rank(points, o.dse)
	t4 := time.Now()
	tr.add(trace, root, "dse.rank", t3, t4)
	t.rank += t4.Sub(t3)

	// Stream framing: one point frame per design, as the stream hub
	// builds it, JSON-encoded as the stream writer does.
	keep, metric := keepFor(o.dse.Rule), metricFor(o.dse.Objective)
	for i, p := range points {
		f := server.StreamFrame{Type: "point", Seq: uint64(i + 1), Point: &server.StreamPoint{
			Config: p.Config.Name, TTFTMS: p.TTFT() * 1e3, TBTMS: p.TBT() * 1e3, AreaMM2: p.AreaMM2,
			PD: p.PD, DieCostUSD: p.DieCostUSD, Admissible: keep(p), X: metric(p), Y: dse.MetricArea(p),
		}}
		if _, err := json.Marshal(f); err != nil {
			return 0, 0, 0, err
		}
	}
	t5 := time.Now()
	tr.add(trace, root, "server.frame_encode", t4, t5)
	t.encode += t5.Sub(t4)
	t.encoded += len(points)

	// Mirrors b and c: the explorer's own sweep, with and without spans.
	spans0 := rp.spansRecorded()
	b0 := time.Now()
	if _, err := rp.b.EvaluateContext(obs.WithRecorder(ctx, rp.rec), cfgs, wl); err != nil {
		return 0, 0, 0, err
	}
	b1 := time.Now()
	if _, err := rp.c.EvaluateContext(ctx, cfgs, wl); err != nil {
		return 0, 0, 0, err
	}
	b2 := time.Now()
	tr.add(trace, root, "dse.evaluate", b0, b1)
	tr.add(trace, root, "dse.evaluate.untraced", b1, b2)
	t.evalRec += b1.Sub(b0)
	t.sweepEval += b1.Sub(b0)
	t.evalPlain += b2.Sub(b1)
	t.designs += len(cfgs)
	t.spans += rp.spansRecorded() - spans0

	if len(missCfgs) > 0 {
		c0 := time.Now()
		if _, err := rp.be.Sweep(ctx, missCfgs, graph); err != nil {
			return 0, 0, 0, err
		}
		c1 := time.Now()
		tr.add(trace, root, "batch.sweep", c0, c1)
		t.sweepBatch += c1.Sub(c0)
		t.batchDesigns += len(missCfgs)
	}
	tr.close(root, time.Now())
	t.ops++
	return hits, misses, t1.Sub(t0) + b1.Sub(b0) + t4.Sub(t3), nil
}

// finishPoint derives a simulated design's area, cost and Oct-2023 class
// with the public functions the explorer's point finishing calls.
func finishPoint(ex *dse.Explorer, cfg arch.Config, r sim.Result) dse.Point {
	a := area.Estimate(cfg)
	var die, good float64
	if rep, err := ex.Wafer.Analyze(a); err == nil {
		die, good = rep.DieCostUSD, rep.GoodDieUSD
	}
	tpp := cfg.TPP()
	return dse.Point{
		Config: cfg, Result: r, TPP: tpp, AreaMM2: a,
		PD:          area.PerformanceDensity(tpp, a, cfg.Process),
		FitsReticle: area.FitsReticle(a),
		Oct2023Class: policy.Oct2023(policy.Metrics{
			TPP: tpp, DeviceBWGBs: cfg.DeviceBWGBs, DieAreaMM2: a, Segment: policy.DataCenter,
		}),
		DieCostUSD: die, GoodDieCostUSD: good,
	}
}
