package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dse"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/search"
	"repro/internal/store"
)

// timedEngine wraps a search engine to time its Propose and Observe
// calls from the benchmark's side.
type timedEngine struct {
	search.Explorer
	tr               *tracer
	trace            string
	parent           int
	propose, observe time.Duration
	gens             int
}

func (e *timedEngine) Propose(max int) []search.Genome {
	t0 := time.Now()
	g := e.Explorer.Propose(max)
	t1 := time.Now()
	e.propose += t1.Sub(t0)
	e.gens++
	if e.tr != nil {
		e.tr.add(e.trace, e.parent, "search.propose", t0, t1)
	}
	return g
}

func (e *timedEngine) Observe(rs []search.Result) {
	t0 := time.Now()
	e.Explorer.Observe(rs)
	t1 := time.Now()
	e.observe += t1.Sub(t0)
	if e.tr != nil {
		e.tr.add(e.trace, e.parent, "search.observe", t0, t1)
	}
}

// stageTime is one recorder stage's summed time and sample count.
type stageTime struct {
	d time.Duration
	n int
}

// stageTimes snapshots every stage of rec; two snapshots' difference is
// what happened in between.
func stageTimes(rec *obs.Recorder) map[string]stageTime {
	out := make(map[string]stageTime)
	for _, st := range rec.StageStats() {
		out[st.Stage] = stageTime{time.Duration(st.MeanSec * float64(st.Count) * 1e9), int(st.Count)}
	}
	return out
}

func stageDelta(before, after map[string]stageTime, stage string) (time.Duration, int) {
	return after[stage].d - before[stage].d, after[stage].n - before[stage].n
}

// replaySearch mirrors search-jan2025: each job reruns search.Runner.Run
// with the same engine and seed on mirror a (recorder in the context,
// engine timed by the wrapper) and mirror c (no recorder).
func (rp *replayer) replaySearch(ctx context.Context, rd *round) ([]string, []accountRow, error) {
	var fails []string
	var acct []accountRow
	t := &rp.t
	for i, s := range rd.kept {
		if !s.ok() {
			continue
		}
		trace := fmt.Sprintf("replay-%d", i)
		wl, err := workloadOf(s.op.search.Workload)
		if err != nil {
			return nil, nil, err
		}
		prob := search.Jan2025Problem(wl)
		root := rp.tr.open(trace, 0, "replay.search", time.Now())
		l0 := time.Now()
		if _, err := ir.Lower(wl); err != nil {
			return nil, nil, err
		}
		l1 := time.Now()
		rp.tr.add(trace, root, "ir.lower", l0, l1)
		t.lower += l1.Sub(l0)
		t.lowered++

		run := func(ex *dse.Explorer, rec *obs.Recorder, parent int) (time.Duration, *timedEngine, store.Stats, error) {
			eng, err := search.New("nsga2", prob.Space, s.op.search.Seed)
			if err != nil {
				return 0, nil, store.Stats{}, err
			}
			te := &timedEngine{Explorer: eng}
			if rec != nil {
				te.tr, te.trace, te.parent = rp.tr, trace, parent
			}
			rctx := ctx
			if rec != nil {
				rctx = obs.WithRecorder(ctx, rec)
			}
			before := ex.Cache.Stats()
			r0 := time.Now()
			_, err = (&search.Runner{Explorer: ex}).Run(rctx, prob, te, s.op.search.Budget, s.op.search.Seed)
			d := time.Since(r0)
			after := ex.Cache.Stats()
			return d, te, store.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}, err
		}
		spans0, stages0 := rp.spansRecorded(), stageTimes(rp.rec)
		runA := rp.tr.open(trace, root, "search.run", time.Now())
		dA, te, delta, err := run(rp.a, rp.rec, runA)
		if err != nil {
			return nil, nil, err
		}
		rp.tr.close(runA, time.Now())
		spans, stages := rp.spansRecorded()-spans0, stageTimes(rp.rec)
		c0 := time.Now()
		dC, _, _, err := run(rp.c, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		rp.tr.add(trace, root, "search.run.untraced", c0, time.Now())
		rp.tr.close(root, time.Now())

		if delta.Hits != s.search.CacheHits || delta.Misses != s.search.CacheMisses {
			fails = append(fails, fmt.Sprintf("replay mirror: search job %d hits/misses %d/%d, service reported %d/%d",
				i, delta.Hits, delta.Misses, s.search.CacheHits, s.search.CacheMisses))
		}
		sweep, _ := stageDelta(stages0, stages, "dse.sweep")
		simT, simN := stageDelta(stages0, stages, "sim.simulate")
		getT, getN := stageDelta(stages0, stages, "store.get.mem")
		putT, putN := stageDelta(stages0, stages, "store.put.mem")
		t.ops++
		t.runs = append(t.runs, ms(dA))
		t.evalRec += dA
		t.evalPlain += dC
		t.propose += te.propose
		t.observe += te.observe
		t.gens += te.gens
		t.designs += s.search.Evaluations
		t.spans += spans
		t.sweepEval += sweep
		t.sim += simT
		t.misses += simN
		t.get += getT
		t.getHit += getT
		t.hits += getN
		t.put += putT
		t.puts += putN
		acct = append(acct, account(s, te.propose+te.observe+sweep))
	}
	return fails, acct, nil
}

// replayClassify times the policy calls /v1/classify makes, over the
// round's bodies.
func (rp *replayer) replayClassify(rd *round) {
	var bodies []*policyBody
	for _, s := range rd.kept {
		if s.ok() {
			bodies = append(bodies, &policyBody{req: s.op})
		}
	}
	const reps = 8 // the calls take well under a microsecond each
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range bodies {
			b.verdicts()
		}
	}
	t1 := time.Now()
	rp.tr.add("replay-classify", 0, "policy.classify", t0, t1)
	rp.t.policy += t1.Sub(t0)
	rp.t.bodies += reps * len(bodies)
	rp.t.ops = len(bodies)
}

// policyBody runs the verdict calls of one classify body.
type policyBody struct {
	req  *op
	sink policy.Classification
}

func (b *policyBody) verdicts() {
	c := b.req.classify
	m := policy.Metrics{TPP: c.TPP, DeviceBWGBs: c.DeviceBWGBs, DieAreaMM2: c.DieAreaMM2}
	v := policy.Oct2022(m)
	m.Segment = policy.DataCenter
	v += policy.Oct2023(m)
	m.Segment = policy.NonDataCenter
	v += policy.Oct2023(m)
	if _, ok := policy.MinAreaToAvoidOct2023(m.TPP, policy.NotApplicable); ok {
		v++
	}
	if c.HBM != nil {
		v += policy.Dec2024HBM(policy.HBMPackage{BandwidthGBs: c.HBM.BandwidthGBs, PackageAreaMM2: c.HBM.PackageAreaMM2})
	}
	b.sink = v
}

func perDesign(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric; idle layers read 0.
func layerMetrics(w *workload, rounds []*round, t replayTotals, e2e e2eResult, control float64) map[string]metric {
	var submit, queue, run, delivery, sweep, memoEntries, memMB []float64
	var frames, designs, jobs, refused, attempted, proposals, evals, gens float64
	var alloc, gcCPU, allCPU float64
	var st storeDelta
	for _, rd := range rounds {
		submit = append(submit, rd.submit50)
		queue = append(queue, rd.queue50)
		run = append(run, rd.run50)
		delivery = append(delivery, rd.delivery50)
		sweep = append(sweep, rd.sweep50)
		memoEntries = append(memoEntries, rd.store.memoEntries)
		memMB = append(memMB, rd.store.memBytes/1e6)
		frames += float64(rd.pointFrames)
		designs += float64(rd.designs)
		jobs += float64(rd.jobs)
		refused += float64(rd.refused)
		attempted += float64(rd.attempted)
		proposals += float64(rd.proposals)
		evals += float64(rd.evaluations)
		gens += float64(rd.generations)
		alloc += float64(rd.allocBytes)
		gcCPU += rd.gcCPU
		allCPU += rd.allCPU
		st.coalesced += rd.store.coalesced
		st.memHits += rd.store.memHits
		st.memLookups += rd.store.memLookups
		st.evictions += rd.store.evictions
		st.memoHits += rd.store.memoHits
		st.memoLookups += rd.store.memoLookups
	}
	v := map[string]float64{
		"server.submit_ms_p50":           median(submit),
		"server.queue_wait_ms_p50":       median(queue),
		"server.run_ms_p50":              median(run),
		"server.delivery_ms_p50":         median(delivery),
		"server.point_frames_per_design": ratio(frames, designs),
		"server.frame_encode_us":         perDesign(t.encode, t.encoded),
		"server.coalesced_share":         ratio(st.coalesced, jobs),
		"server.refused":                 refused,
		"dse.sweep_ms_p50":               median(sweep),
		"dse.expand_us":                  perDesign(t.expand, t.ops),
		"dse.evaluate_us_per_design":     perDesign(t.sweepEval, t.designs),
		"dse.finish_us_per_design":       perDesign(t.finish, t.finished),
		"dse.rank_us":                    perDesign(t.rank, t.ops),
		"ir.lower_us":                    perDesign(t.lower, t.lowered),
		"sim.simulate_us_per_design":     perDesign(t.sim, t.misses),
		"batch.sweep_us_per_design":      perDesign(t.sweepBatch, t.batchDesigns),
		"perf.memo_entries":              median(memoEntries),
		"perf.memo_hit_ratio":            ratio(st.memoHits, st.memoLookups),
		"store.get_us":                   perDesign(t.getHit, t.hits),
		"store.put_us":                   perDesign(t.put, t.puts),
		"store.hit_ratio":                ratio(st.memHits, st.memLookups),
		"store.evictions_per_job":        ratio(st.evictions, jobs),
		"store.mem_mb":                   median(memMB),
		"search.run_ms_p50":              median(t.runs),
		"search.propose_us_per_gen":      perDesign(t.propose, t.gens),
		"search.observe_us_per_gen":      perDesign(t.observe, t.gens),
		"search.generations_per_job":     ratio(gens, jobs),
		"search.revisit_share":           ratio(proposals-evals, proposals),
		"obs.sweep_overhead_share":       ratio(float64(t.evalRec-t.evalPlain), float64(t.evalRec)),
		"obs.spans_per_design":           ratio(float64(t.spans), float64(t.designs)),
		"policy.classify_us":             perDesign(t.policy, t.bodies),
		"runtime.alloc_kb_per_op":        alloc / 1024 / attempted,
		"runtime.gc_cpu_share":           ratio(gcCPU, allCPU),
		"host.control_ms":                control,
	}
	if w.name == wlClassify {
		v["server.request_overhead_us"] = e2e.jobMS*1e3 - v["policy.classify_us"]
	}
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{Value: v[l.name], Unit: l.unit}
	}
	return out
}

// printLayers prints the per-layer table, the replay's split of the
// evaluation, and the accounted share of job_ms_p50.
func printLayers(w *workload, m map[string]metric, t replayTotals, acct []accountRow, e2e e2eResult, tr *tracer) {
	fmt.Printf("per-layer (%d ops replayed from round 0 on mirror state):\n", t.ops)
	for _, l := range perLayer {
		fmt.Printf("  %-32s %16.4f %s\n", l.name, m[l.name].Value, l.unit)
	}
	self := tr.selfTimes()
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span self time (benchmark-side spans):")
	for _, n := range names {
		fmt.Printf("  %-32s %12.3f ms\n", n, self[n]/1e3)
	}
	if w.name == wlClassify {
		p := m["policy.classify_us"].Value
		fmt.Printf("accounted share of req_ms_p50 %.4f ms: policy %.2f%%; gap %.4f ms = server.request_overhead_us (HTTP transport, route wrapper, metrics, slog, request span, JSON decode/encode)\n",
			e2e.jobMS, 100*p/(e2e.jobMS*1e3), m["server.request_overhead_us"].Value/1e3)
		return
	}
	if len(acct) == 0 {
		return
	}
	sort.Slice(acct, func(i, j int) bool { return acct[i].job < acct[j].job })
	mid := acct[len(acct)/2]
	var shares []float64
	for _, a := range acct {
		shares = append(shares, float64(a.pre+a.queue+a.layers+a.delivery)/float64(a.job))
	}
	fmt.Printf("accounted share of job_ms (median of %d replayed jobs): %.1f%%\n", len(acct), 100*median(shares))
	fmt.Printf("  median job %.3f ms = submit %.3f + queue %.3f + run %.3f + delivery %.3f ms\n",
		ms(mid.job), ms(mid.pre), ms(mid.queue), ms(mid.run), ms(mid.delivery))
	gap := mid.run - mid.layers
	fmt.Printf("  run %.3f ms: replayed layers explain %.3f ms; gap %.3f ms (%.1f%% of the job): ",
		ms(mid.run), ms(mid.layers), ms(gap), 100*float64(gap)/float64(mid.job))
	switch {
	case gap < 0:
		fmt.Println("the layers, replayed alone, took longer than the service's run of the same job")
	case w.name == wlSearch:
		fmt.Println("search.Runner bookkeeping outside Propose, Observe and EvaluateContext (genome decoding, hashing, the visit archive) and the stream hub's progress callbacks")
	default:
		fmt.Println("the stream hub's per-design progress callbacks, per-design spans in the server's long-lived recorder, and CPU shared with the stream writer and the client")
	}
	if w.name == wlCold || w.name == wlWarm {
		loop := t.get + t.sim + t.finish + t.put
		if loop > 0 {
			fmt.Printf("  decomposed evaluation (sequential CPU time): store.get %.1f%%, sim.simulate %.1f%%, dse.finish %.1f%%, store.put %.1f%%\n",
				pct(t.get, loop), pct(t.sim, loop), pct(t.finish, loop), pct(t.put, loop))
		}
	}
	if w.clients == 1 {
		fmt.Printf("replay mirror check: %d jobs, per-job store hits/misses compared with the service's deltas\n", len(acct))
	} else {
		fmt.Println("replay mirror check: not applicable with two clients (per-job cache deltas overlap); run-wide misses are checked from /metrics")
	}
}

func pct(a, b time.Duration) float64 { return 100 * float64(a) / float64(b) }

// writeSpans dumps the run's spans as JSON under dir.
func writeSpans(dir string, w *workload, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, w.name+"-spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string    `json:"workload"`
		Spans    []spanRec `json:"spans"`
	}{w.name, tr.spans}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
