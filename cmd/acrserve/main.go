// Command acrserve serves the library's core facade over HTTP/JSON:
// Advanced Computing Rule classification, LLM-inference simulation,
// compliance audits with remediation menus, and asynchronous design-space
// sweeps with job polling and cancellation.
//
//	acrserve -addr :8080
//
//	curl -X POST localhost:8080/v1/classify -d '{"tpp":4992,"device_bw_gbs":600}'
//	curl -X POST localhost:8080/v1/dse -d '{"table3":{"tpp":4800},"rule":"oct2022"}'
//	curl -N localhost:8080/v1/jobs/job-000001/stream
//	curl localhost:8080/metrics
//	curl "localhost:8080/debug/obs/trace?trace=<id>&format=tree"
//	curl localhost:8080/debug/obs/stats
//
// The process drains gracefully on SIGINT/SIGTERM: in-flight requests
// finish, queued sweep jobs are cancelled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
		backlog    = flag.Int("backlog", 64, "max queued sweep jobs before 503 back-pressure")
		cache      = flag.Int("cache", 0, "result cache entries (0 = default, -1 = disabled)")
		cacheDir   = flag.String("cache-dir", "", "keep the job journal under <dir>/jobs: finished jobs stay poll-able across restarts, unfinished jobs resume (empty = memory-only)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "per-job deadline (-1s = none)")
		rateLimit  = flag.Float64("rate-limit", 0, "per-client job submissions per second, 429 + Retry-After past it (0 = unlimited)")
		rateBurst  = flag.Int("rate-burst", 1, "token-bucket burst for -rate-limit")
		traceCap   = flag.Int("trace-capacity", 0, "span ring-buffer capacity for /debug/obs (0 = default, -1 = tracing off)")
		verbose    = flag.Bool("v", false, "debug-level logs")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// Pre-flight the journal directory so a misspelt or unwritable path is
	// a startup error, not a silently memory-only server.
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "acrserve: cache dir:", err)
			os.Exit(1)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	s := server.New(server.Config{
		Workers:       *workers,
		Backlog:       *backlog,
		CacheEntries:  *cache,
		CacheDir:      *cacheDir,
		JobTimeout:    *jobTimeout,
		RateLimit:     *rateLimit,
		RateBurst:     *rateBurst,
		TraceCapacity: *traceCap,
		Logger:        logger,
	})
	if err := s.ListenAndServe(ctx, *addr); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "acrserve:", err)
		os.Exit(1)
	}
}
