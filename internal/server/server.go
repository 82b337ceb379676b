// Package server exposes the library's core facade — ACR classification,
// inference simulation, compliance auditing, and design-space exploration
// — as a concurrent stdlib-only HTTP/JSON service (command acrserve).
//
// Synchronous endpoints answer directly; heavy DSE sweeps go through an
// async job API backed by a bounded worker-pool queue with per-job
// context cancellation and deadlines. Every simulation, synchronous or
// queued, flows through one shared dse.Explorer whose point store
// (package store: a sharded LRU) makes repeated and overlapping sweeps
// cheap; concurrent identical sweeps each evaluate what they miss. The
// observability surface — /healthz, /metrics with per-route request
// counts and latency quantiles, cache hit ratio and queue depth, plus
// structured request logging — rides on the standard library alone.
//
//	POST   /v1/classify   device metrics or config → rule verdicts
//	POST   /v1/simulate   config + workload → evaluated design point
//	POST   /v1/audit      config → audit + remediation menu
//	POST   /v1/dse        grid → 202 + job ID (async sweep)
//	POST   /v1/search     engine + budget → 202 + job ID (adaptive search)
//	GET    /v1/jobs/{id}  poll job status / result (ETag/If-None-Match)
//	GET    /v1/jobs/{id}/stream  NDJSON/SSE: per-design points, running
//	                      Pareto front, terminal summary
//	DELETE /v1/jobs/{id}  cancel a pending or running job
//	GET    /healthz       liveness
//	GET    /metrics       counters, latency quantiles, cache, queue
//
// With a cache directory configured, accepted jobs are journalled to
// disk (spec on submit, status snapshot on completion): after a restart
// finished jobs stay poll-able and unfinished ones resume under their
// original IDs. A configurable per-client token bucket rate-limits the
// submission endpoints with 429 + Retry-After back-pressure.
//
// Deep-dive profiling lives under /debug: /debug/obs/trace serves the
// span ring buffer (package obs) as JSON or an indented tree,
// /debug/obs/stats the exact per-stage latency histograms, and
// /debug/pprof/* the standard Go profiles.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/compliance"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/search"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers bounds concurrent sweep jobs; 0 means GOMAXPROCS.
	Workers int
	// Backlog bounds queued-but-not-started jobs; 0 means 64. A full
	// backlog turns into 503 back-pressure on POST /v1/dse.
	Backlog int
	// CacheEntries bounds the shared result cache; 0 means
	// dse.DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// CacheDir, when non-empty, enables the job journal under
	// <CacheDir>/jobs: accepted DSE/search jobs persist their specs and
	// terminal results, so finished jobs stay poll-able across restarts
	// and unfinished ones resume. Nothing else is written there;
	// evaluated points stay in memory. Empty (the default) keeps
	// everything in memory — nothing is ever written to disk.
	CacheDir string
	// RateLimit, when positive, throttles job submissions (POST /v1/dse
	// and /v1/search) per client IP to this many requests per second;
	// over-limit submissions get 429 with a Retry-After hint instead of
	// a backlog slot. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket burst for RateLimit — how many
	// submissions a quiet client may fire back-to-back; values below 1
	// (including the zero default) mean 1.
	RateBurst int
	// JobTimeout is the per-job deadline; 0 means 10 minutes, negative
	// disables the deadline.
	JobTimeout time.Duration
	// TraceCapacity bounds the span ring buffer behind /debug/obs; 0
	// means obs.DefaultCapacity, negative disables tracing entirely
	// (requests then ride the obs nil fast path).
	TraceCapacity int
	// Logger receives structured request and lifecycle logs; nil means
	// text logs on stderr at Info level.
	Logger *slog.Logger
}

// Server is the HTTP service state. Construct with New.
type Server struct {
	cfg      Config
	explorer *dse.Explorer
	queue    *Queue
	obs      *obs.Recorder // nil when TraceCapacity < 0
	log      *slog.Logger
	mux      *http.ServeMux
	start    time.Time
	// routes holds each route's request counts (metrics.go); filled by
	// route during New and only read afterwards.
	routes map[string]*routeCounts
	// journal persists job specs and terminal results under
	// <CacheDir>/jobs; nil without a cache directory.
	journal *journal
	// limiter rate-limits the submission endpoints; nil when disabled.
	limiter *rateLimiter
}

// New returns a started Server (its worker pool is live; Close releases
// it).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 64
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ex := dse.NewExplorer()
	switch {
	case cfg.CacheEntries < 0:
		ex.Cache = nil
	case cfg.CacheEntries > 0:
		ex.Cache = dse.NewPointStore(cfg.CacheEntries)
	}
	s := &Server{
		cfg:      cfg,
		explorer: ex,
		queue:    NewQueue(cfg.Workers, cfg.Backlog, cfg.JobTimeout),
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		start:    time.Now(),
		routes:   make(map[string]*routeCounts),
	}
	if cfg.TraceCapacity >= 0 {
		s.obs = obs.NewRecorder(cfg.TraceCapacity) // 0 → obs.DefaultCapacity
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	// The hook must precede the first Submit (journal replay included) so
	// no terminal transition escapes the stream hubs or the journal.
	s.queue.SetTerminalHook(s.onJobTerminal)
	if cfg.CacheDir != "" {
		jl, err := openJournal(cfg.CacheDir, s.obs, s.log)
		if err != nil {
			// Degrade durability, not availability.
			s.log.Warn("job journal disabled", "dir", cfg.CacheDir, "err", err)
		} else {
			s.journal = jl
		}
	}
	s.route("POST /v1/classify", s.handleClassify)
	s.route("POST /v1/simulate", s.handleSimulate)
	s.route("POST /v1/audit", s.handleAudit)
	s.route("POST /v1/dse", s.handleSubmit(jobKindDSE))
	s.route("POST /v1/search", s.handleSubmit(jobKindSearch))
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	// The /debug surface bypasses route(): tracing the trace reader would
	// pollute the very ring it reports, and pprof output doesn't belong in
	// the request-latency histograms.
	s.mux.HandleFunc("GET /debug/obs/trace", s.handleObsTrace)
	s.mux.HandleFunc("GET /debug/obs/stats", s.handleObsStats)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	if s.journal != nil {
		s.replayJournal()
	}
	return s
}

// onJobTerminal is the queue's terminal hook: it finishes the job's
// stream hub (its final frames become available) and persists the
// terminal snapshot, result included, to the journal.
func (s *Server) onJobTerminal(j *Job, st JobStatus) {
	if j.hub != nil {
		j.hub.finish(st)
	}
	if s.journal == nil {
		return
	}
	// A job cancelled by queue shutdown is interrupted, not finished:
	// leaving its record spec-only makes the next start resubmit it.
	if st.State == JobCancelled.String() && s.queue.ShuttingDown() {
		return
	}
	s.journal.setTerminal(st)
}

// replayJournal restores journalled jobs at startup: finished jobs
// reserve their IDs (polls and streams serve the persisted record),
// unfinished ones are rebuilt from their specs and resubmitted under
// their original IDs so pre-restart poll URLs keep working. A spec that
// no longer parses — or a backlog too small to hold the survivors — is
// journalled as failed so its pollers see a terminal state, never a
// permanent pending.
func (s *Server) replayJournal() {
	recs, err := s.journal.records()
	if err != nil {
		s.log.Warn("journal replay failed", "dir", s.cfg.CacheDir, "err", err)
		return
	}
	for _, r := range recs {
		if r.Status != nil {
			s.queue.ReserveID(r.ID)
			continue
		}
		if err := s.replayJob(r); err != nil {
			s.log.Warn("journal replay failed", "job", r.ID, "kind", r.Kind, "err", err)
			s.queue.ReserveID(r.ID)
			s.journal.setTerminal(JobStatus{
				ID:    r.ID,
				State: JobFailed.String(),
				Error: fmt.Sprintf("journal replay failed: %v", err),
			})
			continue
		}
		s.log.Info("journal replay resubmitted", "job", r.ID, "kind", r.Kind)
	}
}

// replayJob rebuilds one unfinished journalled job from its spec and
// resubmits it under its original ID. Replayed jobs carry no request
// trace (their originating request died with the old process), so the
// span context is zero.
func (s *Server) replayJob(r jobRecord) error {
	js, err := s.parseJob(r.Kind, func(v any) error {
		if err := json.Unmarshal(r.Spec, v); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = s.enqueue(js, obs.SpanContext{}, r.ID)
	return err
}

// Obs returns the server's span recorder, nil when tracing is disabled.
func (s *Server) Obs() *obs.Recorder { return s.obs }

// Explorer returns the server's shared explorer (tests and benchmarks
// inspect its cache).
func (s *Server) Explorer() *dse.Explorer { return s.explorer }

// Queue returns the server's job queue.
func (s *Server) Queue() *Queue { return s.queue }

// Close shuts the job queue down, aborting running jobs.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.queue.Shutdown(ctx)
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes to the underlying writer, so frames
// written by the jobs stream endpoint reach the client as they happen
// instead of buffering behind the wrapper.
func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// route registers a handler wrapped with request counts, structured
// logging and a request span, all labelled by the mux pattern. The
// span's context flows into the handler, so everything it calls
// (sweeps, simulations) nests under the request in the trace, and its
// duration feeds the stage histogram /metrics reads the route's latency
// quantiles from.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	rc := new(routeCounts)
	s.routes[pattern] = rc
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, sp := obs.StartAt(obs.WithRecorder(r.Context(), s.obs), pattern, start)
		h(rec, r.WithContext(ctx))
		sp.SetInt("status", rec.status)
		sp.End()
		elapsed := time.Since(start)
		rc.count.Add(1)
		if rec.status >= 400 {
			rc.errors.Add(1)
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"remote", r.RemoteAddr,
		)
	})
}

// Handler returns the service's root handler (used directly by httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until ctx is cancelled (SIGTERM in
// acrserve), then drains in-flight requests and shuts the job queue down
// gracefully.
//
//lint:ignore spanflow the server's lifetime is not a traced operation; spans start per request in the handlers
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	s.log.Info("acrserve listening", "addr", addr, "workers", s.cfg.Workers, "backlog", s.cfg.Backlog)
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
		s.log.Info("acrserve shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		if qerr := s.queue.Shutdown(shutCtx); err == nil {
			err = qerr
		}
		return err
	}
}

// maxBodyBytes bounds request bodies; the largest legitimate request (an
// explicit grid) is well under this.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON parses the request body into v, rejecting unknown fields and
// trailing garbage so malformed requests fail loudly with a 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return errors.New("invalid JSON body: trailing data")
	}
	return nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := policy.Metrics{TPP: req.TPP, DeviceBWGBs: req.DeviceBWGBs, DieAreaMM2: req.DieAreaMM2}
	if req.Config != nil {
		cfg, err := req.Config.Config()
		if err != nil {
			writeError(w, http.StatusBadRequest, "config: %v", err)
			return
		}
		m = policy.Metrics{TPP: cfg.TPP(), DeviceBWGBs: cfg.DeviceBWGBs}
		if cfg.Process.NonPlanar() {
			m.DieAreaMM2 = area.Estimate(cfg)
		}
	} else if req.TPP <= 0 {
		writeError(w, http.StatusBadRequest, "provide a config or a positive tpp")
		return
	}
	switch req.Segment {
	case "", "datacenter":
	case "consumer", "non-datacenter":
		// The response always carries both segments; the field only
		// gates validation.
	default:
		writeError(w, http.StatusBadRequest, "unknown segment %q (datacenter, consumer)", req.Segment)
		return
	}

	resp := ClassifyResponse{
		TPP:                m.TPP,
		DeviceBWGBs:        m.DeviceBWGBs,
		DieAreaMM2:         m.DieAreaMM2,
		PerformanceDensity: m.PerformanceDensity(),
		Oct2022:            policy.Oct2022(m).String(),
	}
	m.Segment = policy.DataCenter
	dc := policy.Oct2023(m)
	resp.Oct2023DataCenter = dc.String()
	m.Segment = policy.NonDataCenter
	resp.Oct2023Consumer = policy.Oct2023(m).String()
	m.Segment = policy.DataCenter
	resp.Restricted = policy.Oct2022(m).Restricted() || dc.Restricted()
	if minA, ok := policy.MinAreaToAvoidOct2023(m.TPP, policy.NotApplicable); ok && minA > m.DieAreaMM2 {
		resp.MinAreaToEscapeOct2023MM2 = minA
	}
	if req.HBM != nil {
		resp.HBMDec2024 = policy.Dec2024HBM(policy.HBMPackage{
			BandwidthGBs:   req.HBM.BandwidthGBs,
			PackageAreaMM2: req.HBM.PackageAreaMM2,
		}).String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	wl, err := req.Workload.Workload()
	if err != nil {
		writeError(w, http.StatusBadRequest, "workload: %v", err)
		return
	}
	pts, err := s.explorer.EvaluateContext(r.Context(), []arch.Config{cfg}, wl)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			writeError(w, statusClientClosedRequest, "request cancelled")
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "simulation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, simulateResponse(pts[0], wl))
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	audit, err := compliance.Run(cfg)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "audit failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, auditResponse(audit))
}

// statusClientClosedRequest mirrors nginx's 499 for work abandoned by the
// caller.
const statusClientClosedRequest = 499

// maxGridSize is the most designs one job may sweep, counted before
// core-count solving (Grid.Size), and the largest search budget.
const maxGridSize = 65536

// jobSpec is a validated job submission, ready to enqueue: parsed by
// parseJob from a POST body, or from a journalled spec on restart
// replay.
type jobSpec struct {
	kind string
	// spec is the accepted request, journalled verbatim.
	spec json.RawMessage
	// designs is the number of designs the grid expands to, or the
	// evaluation budget.
	designs int
	hub     *streamHub
	// run does the job's work, streaming its evaluated designs to hub.
	run JobFunc
}

// parseJob decodes a request of the given kind through decode and
// validates it into a jobSpec; errors map to 400s.
func (s *Server) parseJob(kind string, decode func(any) error) (*jobSpec, error) {
	switch kind {
	case jobKindDSE:
		var req DSERequest
		if err := decode(&req); err != nil {
			return nil, err
		}
		return s.parseDSE(req)
	case jobKindSearch:
		var req SearchRequest
		if err := decode(&req); err != nil {
			return nil, err
		}
		return s.parseSearch(req)
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
}

// parseDSE validates a DSE request into a job that sweeps the grid and
// ranks its admissible designs.
func (s *Server) parseDSE(req DSERequest) (*jobSpec, error) {
	grid, err := req.grid()
	if err != nil {
		return nil, err
	}
	if grid.Size() > maxGridSize {
		return nil, fmt.Errorf("grid of %d designs exceeds the %d-design limit",
			grid.Size(), maxGridSize)
	}
	if err := checkCores(grid, req.coreFields); err != nil {
		return nil, err
	}
	// What the sweep will evaluate: expansion drops the combinations
	// whose one-core device already reaches the TPP budget.
	designs, err := grid.Designs()
	if err != nil {
		return nil, err
	}
	rule, objective := cmp.Or(req.Rule, "none"), cmp.Or(req.Objective, "ttft")
	metric, err := dse.Objective(objective)
	if err != nil {
		return nil, err
	}
	keep, err := dse.Rule(rule)
	if err != nil {
		return nil, err
	}
	wreq := WorkloadRequest{}
	if req.Workload != nil {
		wreq = *req.Workload
	}
	wl, err := wreq.Workload()
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	top := req.Top
	if top <= 0 {
		top = 5
	}
	switch req.Eval {
	case "", "scalar", "batch": // accepted for compatibility; every sweep batches
	default:
		return nil, fmt.Errorf("unknown eval %q (scalar, batch)", req.Eval)
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal spec: %w", err)
	}
	hub := newStreamHub(metric, dse.MetricArea, keep)
	run := func(ctx context.Context) (any, error) {
		ctx, jsp := obs.Start(ctx, "dse.job")
		defer jsp.End()
		jsp.SetStr("grid", grid.Name)
		jsp.SetInt("designs", designs)
		start := time.Now()
		// The sweep walks the grid a window at a time; the job never
		// holds its configs. Its visitor summarises each evaluated design
		// once, for the ranking and the stream alike.
		fold := newDSEFold(designs, top)
		sess := s.explorer.NewSession(wl)
		err := sess.SweepGrid(ctx, grid, nil, func(w dse.Window) {
			var buf [dse.WindowSize]StreamPoint
			sps := hub.summarise(buf[:0], w)
			fold.visit(w, sps)
			hub.publish(sps)
		})
		if err != nil {
			return nil, err
		}
		ranked := fold.ranked()
		best, err := fold.best(ranked)
		if err != nil {
			return nil, err
		}
		res := DSEResult{
			Grid:       grid.Name,
			Workload:   wl.Model.Name,
			Rule:       rule,
			Objective:  objective,
			Designs:    fold.designs,
			Admissible: len(ranked),
			Top:        best,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
		res.CacheHits, res.CacheMisses = sess.CacheCounts()
		if s.explorer.Cache != nil {
			jsp.SetInt("cache_hits", int(res.CacheHits))
			jsp.SetInt("cache_misses", int(res.CacheMisses))
		}
		return res, nil
	}
	return &jobSpec{
		kind:    jobKindDSE,
		spec:    spec,
		designs: designs,
		hub:     hub,
		run:     run,
	}, nil
}

// parseSearch validates a search request into a job that drives a
// pluggable engine (package search) through the shared explorer under
// an evaluation budget. The engine is freshly constructed from the
// (derived) seed, so a journal replay reproduces the original run
// exactly. The stream's front axes are the problem's two objectives,
// and its admissibility is the problem's feasibility predicate.
func (s *Server) parseSearch(req SearchRequest) (*jobSpec, error) {
	prob, err := req.problem()
	if err != nil {
		return nil, err
	}
	if req.Budget <= 0 {
		return nil, fmt.Errorf("budget must be positive")
	}
	if req.Budget > maxGridSize {
		return nil, fmt.Errorf("budget of %d evaluations exceeds the %d-design limit",
			req.Budget, maxGridSize)
	}
	engine := req.Engine
	if engine == "" {
		engine = "nsga2"
	}
	seed := req.Seed
	if seed == 0 {
		seed = search.DeriveSeed(engine, prob.Space)
	}
	eng, err := search.New(engine, prob.Space, seed)
	if err != nil {
		return nil, err // lists the valid engines
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal spec: %w", err)
	}
	feasible := prob.Feasible
	if feasible == nil {
		feasible = search.FeasibleReticle
	}
	keep := func(p dse.Point) bool {
		ok, _ := feasible(p)
		return ok
	}
	hub := newStreamHub(prob.Objectives[0].F, prob.Objectives[1].F, keep)
	run := func(ctx context.Context) (any, error) {
		start := time.Now()
		out, err := (&search.Runner{Explorer: s.explorer, Visit: hub.window}).Run(ctx, prob, eng, req.Budget, seed)
		if err != nil {
			return nil, err
		}
		return searchResult(out, time.Since(start)), nil
	}
	return &jobSpec{
		kind:    jobKindSearch,
		spec:    spec,
		designs: req.Budget,
		hub:     hub,
		run:     run,
	}, nil
}

// enqueue submits a validated job — under a fresh ID from HTTP (id ""),
// or a journalled job's original ID on replay — and journals its spec
// once the job has an ID. The hub rides on the Job from the submit on,
// so it sees every frame and, through the terminal hook, the job's end.
// Every job runs its own work: jobs share evaluated designs only through
// the point store, so concurrent identical jobs each evaluate what they
// miss.
func (s *Server) enqueue(js *jobSpec, sc obs.SpanContext, id string) (*Job, error) {
	enqueuedAt := time.Now()
	job, err := s.queue.submit(id, js.hub, func(ctx context.Context) (any, error) {
		ctx = sc.Attach(ctx)
		_, wait := obs.StartAt(ctx, "queue.wait", enqueuedAt)
		wait.End() // enqueue → dequeue: ends the moment the worker picks us up
		return js.run(ctx)
	})
	if err != nil {
		return nil, err
	}
	if s.journal != nil {
		s.journal.appendSpec(job.ID, js.kind, js.spec)
	}
	return job, nil
}

// handleSubmit serves the job endpoints, POST /v1/dse and /v1/search: it
// parses the body into a job of the given kind and enqueues it, answering
// 202 with the job's URLs, 400 for a bad body or 503 for a full backlog.
func (s *Server) handleSubmit(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.allowSubmit(w, r) {
			return
		}
		js, err := s.parseJob(kind, func(v any) error { return decodeJSON(w, r, v) })
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The job outlives this request: capture the span context now and
		// attach it inside the worker, so the job's spans join the request
		// trace even after r.Context() has died with the response.
		sc := obs.ContextOf(r.Context())
		job, err := s.enqueue(js, sc, "")
		if err != nil {
			if errors.Is(err, ErrQueueFull) {
				writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
				return
			}
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.log.Info("job enqueued", "job", job.ID, "kind", kind, "designs", js.designs)
		writeJSON(w, http.StatusAccepted, EnqueueResponse{
			JobID:     job.ID,
			State:     job.State().String(),
			PollURL:   "/v1/jobs/" + job.ID,
			StreamURL: "/v1/jobs/" + job.ID + "/stream",
			Designs:   js.designs,
			Trace:     sc.TraceID(),
		})
	}
}

// handleJobGet polls a job. Terminal statuses are immutable, so they
// carry a strong ETag over the exact response bytes and honour
// If-None-Match with an empty 304; a job evicted from the queue's
// retention map is still served from the journal — byte-identical to
// the live response, even across a restart.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.jobStatus(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !st.terminal() {
		writeJSON(w, http.StatusOK, st) // still moving; not cacheable
		return
	}
	body, err := encodeIndented(st)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	etag := etagFor(body)
	w.Header().Set("ETag", etag)
	if inmMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client disconnects are not actionable
}

// jobStatus looks a job up: the queue's live record first, then the
// journal's terminal record of a job the queue no longer holds (pruned
// from its retention map, or finished before a restart).
func (s *Server) jobStatus(id string) (JobStatus, bool) {
	if job, ok := s.queue.Get(id); ok {
		return job.Status(), true
	}
	if s.journal == nil {
		return JobStatus{}, false
	}
	return s.journal.terminal(id)
}

// encodeIndented renders v exactly as writeJSON would (two-space
// indent, trailing newline), but to memory — the ETag must hash the
// bytes the client will actually receive.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// etagFor derives a strong entity tag from the response body.
func etagFor(body []byte) string {
	h := fnv.New64a()
	h.Write(body) //nolint:errcheck // hash.Hash never errors
	return fmt.Sprintf("\"%016x\"", h.Sum64())
}

// inmMatches reports whether an If-None-Match header matches the entity
// tag (strong comparison, plus the * wildcard).
func inmMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The status snapshot comes from Cancel itself, taken under the same
	// lock as the state change: re-fetching the job here would race with
	// a concurrent Submit's prune evicting it (the old nil-deref panic).
	st, found, cancelled := s.queue.Cancel(id)
	if !found {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !cancelled {
		writeJSON(w, http.StatusConflict, st) // already finished
		return
	}
	s.log.Info("job cancelled", "job", id)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.queue.Depth(),
	})
}

// handleObsTrace serves the span ring buffer: the full Dump by default,
// ?trace=<id> narrows to one trace's spans, ?format=tree renders an
// indented text tree instead of JSON.
func (s *Server) handleObsTrace(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (trace capacity < 0)")
		return
	}
	q := r.URL.Query()
	spans := s.obs.Spans()
	if id := q.Get("trace"); id != "" {
		spans = s.obs.Trace(id)
	}
	if q.Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, obs.TreeString(spans)) //nolint:errcheck // client disconnects are not actionable
		return
	}
	writeJSON(w, http.StatusOK, obs.Dump{
		Spans:        spans,
		Stages:       s.obs.StageStats(),
		DroppedSpans: s.obs.Dropped(),
	})
}

// handleObsStats serves the exact per-stage latency histograms alone —
// the cheap endpoint to poll while a sweep runs.
func (s *Server) handleObsStats(w http.ResponseWriter, _ *http.Request) {
	if s.obs == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (trace capacity < 0)")
		return
	}
	writeJSON(w, http.StatusOK, s.obs.StageStats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}
