package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// acrserveDefaults is the server.Config cmd/acrserve builds when run with
// no flags; only the logger differs — it formats every record as acrserve
// does, into a discarded writer.
func acrserveDefaults() server.Config {
	return server.Config{
		Workers:       0,
		Backlog:       64,
		CacheEntries:  0,
		CacheDir:      "",
		JobTimeout:    10 * time.Minute,
		RateLimit:     0,
		RateBurst:     1,
		TraceCapacity: 0,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// jobStatus is the summary frame's status, with the result left raw
// until the op kind says how to decode it.
type jobStatus struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at"`
	FinishedAt string          `json:"finished_at"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
}

// sample is one op as the client saw it.
type sample struct {
	op *op
	// sent: POST written; headers: POST response headers read; accepted:
	// POST body read; first: first stream frame (the response headers
	// for classify); done: summary frame (the response body for
	// classify) read.
	sent, headers, accepted, first, done time.Time
	// created/started/finished are the job's own timestamps.
	created, started, finished time.Time
	status                     int
	pointFrames                int
	dse                        *server.DSEResult
	search                     *server.SearchResult
	body                       []byte
	// fail is the first failed check; empty when the answer passed.
	fail string
}

func (s *sample) ok() bool { return s.fail == "" }

func (s *sample) latency() time.Duration { return s.done.Sub(s.sent) }

// designs is how many designs the op's correct result covered.
func (s *sample) designs() int {
	switch {
	case s.dse != nil:
		return s.dse.Designs
	case s.search != nil:
		return s.search.Evaluations
	case s.op.kind == kindClassify:
		return 1
	}
	return 0
}

type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

// opTimeout bounds one request, stream included: a healthy server
// answers the largest job in well under a second, so a stream that never
// ends fails its op instead of stalling the run.
const opTimeout = 10 * time.Second

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: opTimeout}}
}

// do runs one op to its final answer and applies the per-answer checks
// that need no reference computation.
func (c *client) do(o *op) *sample {
	s := &sample{op: o}
	s.sent = time.Now()
	resp, err := c.hc.Post(c.base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		s.fail = "transport: " + err.Error()
		return s
	}
	s.headers = time.Now()
	s.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.accepted = time.Now()
	if err != nil {
		s.fail = "transport: " + err.Error()
		return s
	}
	if o.kind == kindClassify {
		s.first, s.done, s.body = s.headers, s.accepted, body
		if s.status != http.StatusOK {
			s.fail = fmt.Sprintf("classify: HTTP %d", s.status)
		}
		return s
	}
	if s.status != http.StatusAccepted {
		s.fail = fmt.Sprintf("submit: HTTP %d: %s", s.status, bytes.TrimSpace(body))
		return s
	}
	var enq server.EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		s.fail = "submit: " + err.Error()
		return s
	}
	st, err := c.stream(s, enq.StreamURL)
	if err != nil {
		s.fail = fmt.Sprintf("stream: %v (%s)", err, c.pollState(enq.PollURL))
		return s
	}
	s.fail = s.checkSummary(st)
	return s
}

var (
	pointPrefix   = []byte(`{"type":"point"`)
	summaryPrefix = []byte(`{"type":"summary"`)
)

// stream reads the job's NDJSON stream up to the summary frame, counting
// point frames without decoding them.
func (c *client) stream(s *sample, url string) (*jobStatus, error) {
	resp, err := c.hc.Get(c.base + url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if s.first.IsZero() {
			s.first = time.Now()
		}
		switch {
		case bytes.HasPrefix(line, pointPrefix):
			s.pointFrames++
		case bytes.HasPrefix(line, summaryPrefix):
			s.done = time.Now()
			var f struct {
				Status *jobStatus `json:"status"`
			}
			if err := json.Unmarshal(line, &f); err != nil {
				return nil, err
			}
			if f.Status == nil {
				return nil, fmt.Errorf("summary frame without status")
			}
			return f.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a summary frame")
}

// checkSummary decodes the terminal status into the sample and returns
// the first failed check.
func (s *sample) checkSummary(st *jobStatus) string {
	if st.State != "succeeded" {
		return fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	var err error
	for _, ts := range []struct {
		src string
		dst *time.Time
	}{{st.CreatedAt, &s.created}, {st.StartedAt, &s.started}, {st.FinishedAt, &s.finished}} {
		if *ts.dst, err = time.Parse(time.RFC3339Nano, ts.src); err != nil {
			return "job timestamps: " + err.Error()
		}
	}
	switch s.op.kind {
	case kindDSE:
		s.dse = new(server.DSEResult)
		if err := json.Unmarshal(st.Result, s.dse); err != nil {
			return "dse result: " + err.Error()
		}
		if s.dse.Designs != s.op.want {
			return fmt.Sprintf("dse: %d designs, want len(grid.Expand()) = %d", s.dse.Designs, s.op.want)
		}
		if s.op.cold && s.dse.CacheHits != 0 {
			return fmt.Sprintf("dse-cold: %d cache hits on a workload no earlier job used", s.dse.CacheHits)
		}
	case kindSearch:
		s.search = new(server.SearchResult)
		if err := json.Unmarshal(st.Result, s.search); err != nil {
			return "search result: " + err.Error()
		}
		if s.search.Evaluations != s.op.want {
			return fmt.Sprintf("search: %d evaluations, want the budget %d", s.search.Evaluations, s.op.want)
		}
	}
	return ""
}

// pollState reports what the poll endpoint says about a job whose
// stream failed: a terminal state there means the stream, not the job,
// is at fault.
func (c *client) pollState(url string) string {
	resp, err := c.hc.Get(c.base + url)
	if err != nil {
		return "poll: " + err.Error()
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "poll: " + err.Error()
	}
	return fmt.Sprintf("GET %s: state %s", url, st.State)
}

func (c *client) metrics() (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// warmConns opens n keep-alive connections, so the timed phase does not
// pay for TCP set-up.
func (c *client) warmConns(n int) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.hc.Get(c.base + "/healthz")
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// round is one fresh server's share of a run, reduced to per-round
// figures when it ends. Beyond round 0's samples (the traced replay's
// input) a run keeps no per-op data, so what the benchmark itself holds
// stays constant and the heap figures do not grow with the round count.
type round struct {
	n        int
	setup    time.Duration
	measured time.Duration
	// heapPeak is the peak in-use heap of the timed phase above the
	// baseline taken after a forced GC, before the server starts.
	heapPeak          uint64
	attempted, failed int
	refused, designs  int
	// fails holds the round's first few failed checks.
	fails []string
	// p50, p90 and first50 are quantiles of the round's op latencies in
	// ms (a failed op counts as +Inf); submit50 is the POST's response
	// headers. queue50, run50, delivery50 and sweep50 come from the job
	// summaries and are 0 without jobs.
	p50, p90, first50, submit50         float64
	queue50, run50, delivery50, sweep50 float64
	jobs, pointFrames                   int
	proposals, evaluations, generations int
	store                               storeDelta
	allocBytes                          uint64
	gcCPU, allCPU                       float64
	// started is when the timed phase began.
	started time.Time
	// kept holds round 0's samples for the reference checks and the
	// traced run.
	kept []*sample
}

// storeDelta is what /metrics reported about the round's timed phase.
type storeDelta struct {
	cacheMisses                      uint64
	coalesced, memHits, memLookups   float64
	evictions, memoHits, memoLookups float64
	memBytes, memoEntries            float64 // at the round's end
}

func storeDeltaOf(before, after server.MetricsSnapshot) storeDelta {
	d := storeDelta{cacheMisses: after.Cache.Misses - before.Cache.Misses}
	for name, a := range after.Store {
		b := before.Store[name]
		hits := float64(a.Hits - b.Hits)
		lookups := float64(a.Hits + a.Misses - b.Hits - b.Misses)
		switch {
		case name == "jobs.dse":
			d.coalesced += hits
		case name == "mem":
			d.memHits += hits
			d.memLookups += lookups
			d.evictions += float64(a.Evictions - b.Evictions)
			d.memBytes = float64(a.Bytes)
		case strings.HasPrefix(name, "perf."):
			d.memoHits += hits
			d.memoLookups += lookups
			d.memoEntries += float64(a.Len)
		}
	}
	return d
}

// maxRoundFails bounds the failure lines a round keeps.
const maxRoundFails = 5

// runRound starts a server with acrserve's defaults, runs the workload's
// setup, then drives ops closed-loop from w.clients clients.
func runRound(w *workload, n int, ops []*op) (*round, error) {
	runtime.GC()
	base := heapInuseNow()
	t0 := time.Now()
	srv := server.New(acrserveDefaults())
	ts := httptest.NewServer(srv.Handler())
	cl := newClient(ts.URL)
	defer func() {
		cl.tr.CloseIdleConnections()
		ts.Close()
		srv.Close()
	}()
	for _, o := range w.setup {
		if s := cl.do(o); !s.ok() {
			return nil, fmt.Errorf("round %d setup: %s", n, s.fail)
		}
	}
	if err := cl.warmConns(w.clients); err != nil {
		return nil, fmt.Errorf("round %d setup: %w", n, err)
	}
	before, err := cl.metrics()
	if err != nil {
		return nil, fmt.Errorf("round %d metrics: %w", n, err)
	}
	rd := &round{n: n, setup: time.Since(t0)}

	samples := make([]*sample, len(ops))
	sampler := startHeapSampler()
	rt0 := readRuntime()
	rd.started = time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				samples[i] = cl.do(ops[i])
			}
		}()
	}
	wg.Wait()
	rd.measured = time.Since(rd.started)
	rt1 := readRuntime()
	if peak := sampler.stop(); peak > base {
		rd.heapPeak = peak - base
	}
	after, err := cl.metrics()
	if err != nil {
		return nil, fmt.Errorf("round %d metrics: %w", n, err)
	}
	rd.store = storeDeltaOf(before, after)
	rd.allocBytes = rt1.allocBytes - rt0.allocBytes
	rd.gcCPU, rd.allCPU = rt1.gcCPU-rt0.gcCPU, rt1.allCPU-rt0.allCPU
	rd.reduce(samples)
	return rd, nil
}

// reduce checks the classify answers against the policy reference and
// folds every sample into the round's figures.
func (rd *round) reduce(samples []*sample) {
	var lat, first, submit, queue, run, delivery, sweep []float64
	for _, s := range samples {
		if s.ok() && s.op.kind == kindClassify {
			s.fail = checkClassify(s)
		}
		rd.attempted++
		if rd.n == 0 {
			rd.kept = append(rd.kept, s)
		}
		if s.status == http.StatusServiceUnavailable || s.status == http.StatusTooManyRequests {
			rd.refused++
		}
		if !s.ok() {
			rd.failed++
			if len(rd.fails) < maxRoundFails {
				rd.fails = append(rd.fails, s.fail)
			}
			lat = append(lat, math.Inf(1))
			first = append(first, math.Inf(1))
			continue
		}
		lat = append(lat, ms(s.latency()))
		first = append(first, ms(s.first.Sub(s.sent)))
		submit = append(submit, ms(s.headers.Sub(s.sent)))
		rd.designs += s.designs()
		if s.op.kind == kindClassify {
			continue
		}
		rd.jobs++
		rd.pointFrames += s.pointFrames
		queue = append(queue, ms(s.started.Sub(s.created)))
		run = append(run, ms(s.finished.Sub(s.started)))
		delivery = append(delivery, ms(s.done.Sub(s.finished)))
		if s.dse != nil {
			sweep = append(sweep, s.dse.DurationMS)
		}
		if s.search != nil {
			rd.proposals += s.search.Proposals
			rd.evaluations += s.search.Evaluations
			rd.generations += s.search.Generations
		}
	}
	rd.p50, rd.p90, rd.first50 = quantile(lat, 0.5), quantile(lat, 0.9), median(first)
	rd.submit50, rd.queue50, rd.run50 = median(submit), median(queue), median(run)
	rd.delivery50, rd.sweep50 = median(delivery), median(sweep)
}
