// Command lilyd serves the lily mapping pipeline over HTTP: submit a job
// (benchmark name or uploaded BLIF plus flow options), poll its status,
// fetch the FlowResult, and download the layout SVG. Jobs execute on the
// concurrent flow engine (worker pool, per-job timeouts, content-addressed
// result cache, singleflight dedup); SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight jobs.
//
// The daemon is built for sustained job streams: terminal jobs are
// retained boundedly (-max-jobs, oldest evicted first) and aged out
// (-retain); evicted IDs answer 410 Gone. A full submit queue sheds load
// with 429 Too Many Requests + Retry-After instead of hanging the
// connection, and the listener enforces header/idle timeouts against
// slow clients.
//
// Observability: GET /metrics serves Prometheus text exposition for the
// engine, flow, and HTTP layers; GET /v1/jobs/{id}/trace returns the
// job's phase-span tree (tracing is on by default, -trace=false disables
// it); -debug-addr starts a second, private listener exposing
// net/http/pprof. Logs are structured (log/slog); -log-format selects
// text or json.
//
// One lilyd process serves one engine. Results are deterministic, so the
// same request always yields the same bytes; the result cache keys on the
// request digest (Status.Digest) and answers repeats without recomputing.
// A job submitted with "emit_blif": true reports the SHA-256 of its
// mapped netlist in its status (blif_sha256), so a suite client checks
// determinism job by job.
//
// Usage:
//
//	lilyd -addr :8080 -workers 8 -cache 256 -timeout 5m -max-jobs 4096 -retain 1h
//
// Example session:
//
//	curl -s localhost:8080/v1/benchmarks
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"benchmark":"C432","svg":true,"options":{"mapper":"lily","objective":"area"}}'
//	curl -s 'localhost:8080/v1/jobs/job-000001?wait=10s'
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s localhost:8080/v1/jobs/job-000001/trace
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lily"
	"lily/internal/engine"
	"lily/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size")
	queue := flag.Int("queue", 0, "submit-queue capacity (0 = 4x workers)")
	cache := flag.Int("cache", 256, "result-cache entries (negative disables)")
	timeout := flag.Duration("timeout", 10*time.Minute, "default per-job timeout (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	maxJobs := flag.Int("max-jobs", 4096,
		"terminal jobs retained for status/result fetches; oldest evicted first (negative = unlimited)")
	retain := flag.Duration("retain", time.Hour,
		"drop terminal jobs older than this (0 = keep until evicted)")
	trace := flag.Bool("trace", true,
		"record per-job phase-span traces, served at /v1/jobs/{id}/trace")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logRequests := flag.Bool("log-requests", false, "log one record per HTTP request")
	debugAddr := flag.String("debug-addr", "",
		"separate listen address for net/http/pprof (empty = disabled)")
	targetFlag := flag.String("target", "asic",
		"technology target for jobs that don't set options.target: asic, lut4, or lut6")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
		os.Exit(2)
	}

	defaultTarget, err := lily.ParseTechnologyTarget(*targetFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
		os.Exit(2)
	}

	// The server registers its HTTP metrics on the engine's registry, so
	// a single /metrics scrape covers the engine, flow, and HTTP layers.
	eng := engine.New(engine.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		MaxRetainedJobs: *maxJobs,
		RetainFor:       *retain,
		Trace:           *trace,
		// A network service must never park a connection on a full
		// queue; shed load and let the handler answer 429 + Retry-After.
		LoadShed: true,
		// One structured record per terminal job, from the worker that
		// finished it.
		OnTerminal: func(st engine.Status) {
			logger.Info("job done",
				slog.String("job_id", st.ID),
				slog.String("state", st.State),
				slog.String("benchmark", st.Benchmark),
				slog.Bool("cache_hit", st.CacheHit),
				slog.Bool("deduped", st.Deduped),
				slog.Duration("queue_wait", st.QueueWait),
				slog.Duration("run_time", st.RunTime),
			)
		},
	})

	handler := server.New(eng, server.WithDefaultTarget(defaultTarget))
	if *logRequests {
		handler.Logger = logger
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Defenses against slow or abusive clients: a peer may not dribble
		// headers forever, idle keep-alives are reaped, and headers are
		// size-capped. No WriteTimeout — the server-side ?wait clamp
		// already bounds long-polls, and SVG downloads may be large.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute, // full request incl. 8 MiB BLIF body
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		slog.String("addr", *addr),
		slog.Int("workers", *workers),
		slog.Int("queue_cap", eng.Stats().QueueCap),
		slog.Int("cache", *cache),
		slog.Duration("timeout", *timeout),
		slog.Int("max_jobs", *maxJobs),
		slog.Duration("retain", *retain),
		slog.Bool("trace", *trace),
	)

	// pprof lives on its own listener so profiling endpoints are never
	// reachable through the public API address. Handlers are registered
	// explicitly on a private mux — importing net/http/pprof for its
	// DefaultServeMux side effect would leak them onto any handler that
	// falls through to the default mux.
	var dbg *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", slog.String("error", err.Error()))
			}
		}()
		logger.Info("pprof listening", slog.String("addr", *debugAddr))
	}

	select {
	case err := <-errc:
		logger.Error("serve", slog.String("error", err.Error()))
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight jobs", slog.Duration("budget", *drain))

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if dbg != nil {
		if err := dbg.Shutdown(shutdownCtx); err != nil {
			logger.Warn("debug shutdown", slog.String("error", err.Error()))
		}
	}
	if err := eng.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("engine shutdown", slog.String("error", err.Error()))
	}
	logger.Info("bye")
}

// newLogger builds the process logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want \"text\" or \"json\")", format)
	}
}
