// Package server exposes the library's core facade — ACR classification,
// inference simulation, compliance auditing, and design-space exploration
// — as a concurrent stdlib-only HTTP/JSON service (command acrserve).
//
// Synchronous endpoints answer directly; heavy DSE sweeps go through an
// async job API backed by a bounded worker-pool queue with per-job
// context cancellation and deadlines. Every simulation, synchronous or
// queued, flows through one shared dse.Explorer whose result store
// (package store: sharded memory LRU plus single-flight dedup) makes
// repeated, overlapping and concurrent identical sweeps cheap. The
// observability surface — /healthz, /metrics with request counts, latency
// histograms, cache hit ratio and queue depth, plus structured request
// logging — rides on the standard library alone.
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
//	GET    /metrics       counters, histograms, cache, queue
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
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/area"
	"repro/internal/compliance"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/search"
	"repro/internal/store"
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
	// MaxGridSize rejects sweeps larger than this many designs; 0 means
	// 65536.
	MaxGridSize int
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
	// batchEx is the explorer's batch-evaluating twin: same simulator,
	// wafer model and result cache, so either evaluator serves and feeds
	// the shared LRU with bit-identical points.
	batchEx *dse.Explorer
	queue   *Queue
	metrics *metrics
	obs     *obs.Recorder // nil when TraceCapacity < 0
	log     *slog.Logger
	mux     *http.ServeMux
	// journal persists job specs and terminal results under
	// <CacheDir>/jobs; nil without a cache directory.
	journal *journal
	// limiter rate-limits the submission endpoints; nil when disabled.
	limiter *rateLimiter
	// streams maps live job IDs to their stream hubs (stream.go).
	streamMu sync.Mutex
	streams  map[string]*streamHub
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
	if cfg.MaxGridSize <= 0 {
		cfg.MaxGridSize = 65536
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ex := dse.NewExplorer()
	switch {
	case cfg.CacheEntries < 0:
		ex.Cache = nil
	case cfg.CacheEntries > 0:
		ex.Cache = newPointCache(cfg.CacheEntries)
	}
	s := &Server{
		cfg:      cfg,
		explorer: ex,
		batchEx:  ex.WithBatch(),
		queue:    NewQueue(cfg.Workers, cfg.Backlog, cfg.JobTimeout),
		metrics:  newMetrics(),
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		streams:  make(map[string]*streamHub),
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
	s.route("POST /v1/dse", s.handleDSE)
	s.route("POST /v1/search", s.handleSearch)
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

// onJobTerminal is the queue's terminal hook: it releases the job's
// stream (the hub's final frames become available) and persists the
// terminal snapshot, result included, to the journal.
func (s *Server) onJobTerminal(st JobStatus) {
	s.finishStream(st)
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
	for _, r := range s.journal.records() {
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
// resubmits it. Replayed jobs carry no request trace (their originating
// request died with the old process), so the span context is zero.
func (s *Server) replayJob(r jobRecord) error {
	switch r.Kind {
	case jobKindDSE:
		var req DSERequest
		if err := json.Unmarshal(r.Spec, &req); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		dj, err := s.parseDSE(req)
		if err != nil {
			return err
		}
		_, err = s.enqueueDSE(dj, obs.SpanContext{}, r.ID)
		return err
	case jobKindSearch:
		var req SearchRequest
		if err := json.Unmarshal(r.Spec, &req); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		sj, err := s.parseSearch(req)
		if err != nil {
			return err
		}
		_, err = s.enqueueSearch(sj, obs.SpanContext{}, r.ID)
		return err
	default:
		return fmt.Errorf("unknown job kind %q", r.Kind)
	}
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

// route registers a handler wrapped with metrics, structured logging and
// a request span, all labelled by the mux pattern. The span's context
// flows into the handler, so everything it calls (sweeps, simulations)
// nests under the request in the trace.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, sp := obs.StartAt(obs.WithRecorder(r.Context(), s.obs), pattern, start)
		h(rec, r.WithContext(ctx))
		sp.SetInt("status", rec.status)
		sp.End()
		elapsed := time.Since(start)
		s.metrics.observe(pattern, rec.status, elapsed)
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
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "invalid JSON body: trailing data")
		return false
	}
	return true
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req ClassifyRequest
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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
	if !decodeJSON(w, r, &req) {
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

// dseJob is a validated DSE submission, ready to enqueue — parsed once
// by handleDSE, and again from the journalled spec on restart replay.
type dseJob struct {
	// spec is the accepted request, journalled verbatim.
	spec      json.RawMessage
	grid      dse.Grid
	wl        model.Workload
	metric    func(dse.Point) float64
	keep      func(dse.Point) bool
	top       int
	rule      string
	objective string
	ex        *dse.Explorer
}

// parseDSE validates a DSE request into its runnable form; errors map
// to 400s.
func (s *Server) parseDSE(req DSERequest) (*dseJob, error) {
	grid, err := req.grid()
	if err != nil {
		return nil, err
	}
	if grid.Size() > s.cfg.MaxGridSize {
		return nil, fmt.Errorf("grid of %d designs exceeds the %d-design limit",
			grid.Size(), s.cfg.MaxGridSize)
	}
	metric, err := req.metric()
	if err != nil {
		return nil, err
	}
	keep, err := req.admissible()
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
	dj := &dseJob{
		grid:      grid,
		wl:        wl,
		metric:    metric,
		keep:      keep,
		top:       req.Top,
		rule:      req.Rule,
		objective: req.Objective,
		ex:        s.explorer,
	}
	if dj.top <= 0 {
		dj.top = 5
	}
	if dj.rule == "" {
		dj.rule = "none"
	}
	if dj.objective == "" {
		dj.objective = "ttft"
	}
	switch req.Eval {
	case "", "scalar":
	case "batch":
		dj.ex = s.batchEx
	default:
		return nil, fmt.Errorf("unknown eval %q (scalar, batch)", req.Eval)
	}
	if dj.spec, err = json.Marshal(req); err != nil {
		return nil, fmt.Errorf("marshal spec: %w", err)
	}
	return dj, nil
}

// enqueueDSE submits a validated DSE job — under a fresh ID from HTTP
// (id ""), or a journalled job's original ID on replay. The stream hub
// exists before the submit so the stream cannot miss a frame, and the
// spec is journalled once the job has an ID. Every job runs its own
// sweep; concurrent identical designs are still simulated once, through
// the point store's single-flight layer.
func (s *Server) enqueueDSE(dj *dseJob, sc obs.SpanContext, id string) (*Job, error) {
	hub := newStreamHub(dj.metric, dse.MetricArea, dj.keep)
	enqueuedAt := time.Now()
	fn := func(ctx context.Context) (any, error) {
		ctx = sc.Attach(ctx)
		_, wait := obs.StartAt(ctx, "queue.wait", enqueuedAt)
		wait.End() // enqueue → dequeue: ends the moment the worker picks us up
		ctx, jsp := obs.Start(ctx, "dse.job")
		defer jsp.End()
		jsp.SetStr("grid", dj.grid.Name)
		jsp.SetInt("designs", dj.grid.Size())
		res, err := s.runDSE(dse.WithProgress(ctx, hub.point), dj)
		if err != nil {
			return nil, err
		}
		if s.explorer.Cache != nil {
			jsp.SetInt("cache_hits", int(res.CacheHits))
			jsp.SetInt("cache_misses", int(res.CacheMisses))
		}
		return res, nil
	}
	job, err := s.submitNamed(id, fn)
	if err != nil {
		return nil, err
	}
	s.registerStream(job.ID, hub)
	if s.journal != nil {
		s.journal.appendSpec(job.ID, jobKindDSE, dj.spec)
	}
	return job, nil
}

// submitNamed routes between fresh and replayed-ID submission.
func (s *Server) submitNamed(id string, fn JobFunc) (*Job, error) {
	if id == "" {
		return s.queue.Submit(fn)
	}
	return s.queue.SubmitNamed(id, fn)
}

// runDSE executes the sweep and assembles the DSEResult.
func (s *Server) runDSE(ctx context.Context, dj *dseJob) (DSEResult, error) {
	start := time.Now()
	var before store.Stats
	if s.explorer.Cache != nil {
		before = s.explorer.Cache.Stats()
	}
	points, err := dj.ex.RunContext(ctx, dj.grid, dj.wl)
	if err != nil {
		return DSEResult{}, err
	}
	admissible := dse.Filter(points, dj.keep)
	sort.Slice(admissible, func(i, j int) bool {
		return dj.metric(admissible[i]) < dj.metric(admissible[j])
	})
	top := dj.top
	if top > len(admissible) {
		top = len(admissible)
	}
	res := DSEResult{
		Grid:       dj.grid.Name,
		Workload:   dj.wl.Model.Name,
		Rule:       dj.rule,
		Objective:  dj.objective,
		Designs:    len(points),
		Admissible: len(admissible),
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if s.explorer.Cache != nil {
		after := s.explorer.Cache.Stats()
		res.CacheHits = after.Hits - before.Hits
		res.CacheMisses = after.Misses - before.Misses
	}
	for i, p := range admissible[:top] {
		res.Top = append(res.Top, DesignSummary{
			Rank:       i + 1,
			Config:     p.Config.Name,
			TTFTMS:     p.TTFT() * 1e3,
			TBTMS:      p.TBT() * 1e3,
			AreaMM2:    p.AreaMM2,
			PD:         p.PD,
			DieCostUSD: p.DieCostUSD,
		})
	}
	return res, nil
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	if !s.allowSubmit(w, r) {
		return
	}
	var req DSERequest
	if !decodeJSON(w, r, &req) {
		return
	}
	dj, err := s.parseDSE(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The job outlives this request: capture the span context now and
	// attach it inside the worker, so the sweep's spans join the request
	// trace even after r.Context() has died with the response.
	sc := obs.ContextOf(r.Context())
	job, err := s.enqueueDSE(dj, sc, "")
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.log.Info("dse job enqueued", "job", job.ID, "grid", dj.grid.Name, "designs", dj.grid.Size())
	writeJSON(w, http.StatusAccepted, EnqueueResponse{
		JobID:     job.ID,
		State:     job.State().String(),
		PollURL:   "/v1/jobs/" + job.ID,
		StreamURL: "/v1/jobs/" + job.ID + "/stream",
		Designs:   dj.grid.Size(),
		Trace:     sc.TraceID(),
	})
}

// searchJob is a validated search submission, ready to enqueue.
type searchJob struct {
	spec   json.RawMessage
	prob   search.Problem
	eng    search.Explorer
	engine string
	seed   uint64
	budget int
}

// parseSearch validates a search request into its runnable form; errors
// map to 400s. The engine is freshly constructed from the (derived)
// seed, so a journal replay reproduces the original run exactly.
func (s *Server) parseSearch(req SearchRequest) (*searchJob, error) {
	prob, err := req.problem()
	if err != nil {
		return nil, err
	}
	if req.Budget <= 0 {
		return nil, fmt.Errorf("budget must be positive")
	}
	if req.Budget > s.cfg.MaxGridSize {
		return nil, fmt.Errorf("budget of %d evaluations exceeds the %d-design limit",
			req.Budget, s.cfg.MaxGridSize)
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
	return &searchJob{
		spec:   spec,
		prob:   prob,
		eng:    eng,
		engine: engine,
		seed:   seed,
		budget: req.Budget,
	}, nil
}

// searchStreamHub builds the stream hub for a search job: the front
// axes are the problem's first two objectives (die area when there is
// only one), admissibility is the problem's feasibility predicate.
func searchStreamHub(prob search.Problem) *streamHub {
	xf := prob.Objectives[0].F // validateProblem guarantees at least one
	yf := dse.MetricArea
	if len(prob.Objectives) > 1 {
		yf = prob.Objectives[1].F
	}
	feasible := prob.Feasible
	if feasible == nil {
		feasible = search.FeasibleReticle
	}
	keep := func(p dse.Point) bool {
		ok, _ := feasible(p)
		return ok
	}
	return newStreamHub(xf, yf, keep)
}

// enqueueSearch submits a validated search job; id works as in
// enqueueDSE. The runner evaluates through the shared explorer, so the
// progress hook streams every newly simulated design.
func (s *Server) enqueueSearch(sj *searchJob, sc obs.SpanContext, id string) (*Job, error) {
	hub := searchStreamHub(sj.prob)
	enqueuedAt := time.Now()
	fn := func(ctx context.Context) (any, error) {
		ctx = sc.Attach(ctx)
		_, wait := obs.StartAt(ctx, "queue.wait", enqueuedAt)
		wait.End()
		start := time.Now()
		var before store.Stats
		if s.explorer.Cache != nil {
			before = s.explorer.Cache.Stats()
		}
		ctx = dse.WithProgress(ctx, hub.point)
		out, err := (&search.Runner{Explorer: s.explorer}).Run(ctx, sj.prob, sj.eng, sj.budget, sj.seed)
		if err != nil {
			return nil, err
		}
		res := searchResult(out, time.Since(start))
		if s.explorer.Cache != nil {
			after := s.explorer.Cache.Stats()
			res.CacheHits = after.Hits - before.Hits
			res.CacheMisses = after.Misses - before.Misses
		}
		return res, nil
	}
	job, err := s.submitNamed(id, fn)
	if err != nil {
		return nil, err
	}
	s.registerStream(job.ID, hub)
	if s.journal != nil {
		s.journal.appendSpec(job.ID, jobKindSearch, sj.spec)
	}
	return job, nil
}

// handleSearch enqueues an adaptive design-space search job. It mirrors
// handleDSE's async shape, but the worker drives a pluggable engine
// (package search) through the shared explorer under an evaluation
// budget instead of sweeping a grid; the runner's search.run,
// search.generation and search.evaluate spans join the request trace.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.allowSubmit(w, r) {
		return
	}
	var req SearchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sj, err := s.parseSearch(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc := obs.ContextOf(r.Context())
	job, err := s.enqueueSearch(sj, sc, "")
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.log.Info("search job enqueued", "job", job.ID, "engine", sj.engine, "space", sj.prob.Space.Name, "budget", sj.budget)
	writeJSON(w, http.StatusAccepted, EnqueueResponse{
		JobID:     job.ID,
		State:     job.State().String(),
		PollURL:   "/v1/jobs/" + job.ID,
		StreamURL: "/v1/jobs/" + job.ID + "/stream",
		Designs:   sj.budget,
		Trace:     sc.TraceID(),
	})
}

// handleJobGet polls a job. Terminal statuses are immutable, so they
// carry a strong ETag over the exact response bytes and honour
// If-None-Match with an empty 304; a job evicted from the queue's
// retention map is still served from the journal — byte-identical to
// the live response, even across a restart.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st JobStatus
	if job, ok := s.queue.Get(id); ok {
		st = job.Status()
	} else if jst, ok := s.journalStatus(id); ok {
		st = jst
	} else {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch st.State {
	case JobSucceeded.String(), JobFailed.String(), JobCancelled.String():
	default:
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

// journalStatus looks a job up in the journal's terminal records.
func (s *Server) journalStatus(id string) (JobStatus, bool) {
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
	var cache store.Stats
	tiers := make(map[string]store.Stats)
	if s.explorer.Cache != nil {
		cache = s.explorer.Cache.Stats()
		for name, st := range s.explorer.Cache.TierStats() {
			tiers[name] = st
		}
	}
	if s.explorer.Sim != nil && s.explorer.Sim.Engine != nil {
		for name, st := range s.explorer.Sim.Engine.MemoStats() {
			tiers[name] = st
		}
	}
	writeJSON(w, http.StatusOK, s.metrics.snapshot(cache, tiers, s.queue.Snapshot()))
}
