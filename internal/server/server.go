// Package server implements lilyd's HTTP JSON API on top of the
// concurrent flow engine. Endpoints:
//
//	POST   /v1/jobs            submit a mapping job (benchmark or BLIF + options)
//	GET    /v1/jobs            list job statuses
//	GET    /v1/jobs/{id}       poll one job (optional ?wait=5s long-poll, capped at 60s)
//	GET    /v1/jobs/{id}/result  fetch the FlowResult of a finished job
//	GET    /v1/jobs/{id}/svg     download the rendered layout SVG
//	GET    /v1/jobs/{id}/trace   phase-span tree recorded for the job
//	GET    /v1/benchmarks      list the built-in benchmark suite
//	GET    /v1/stats           engine counters (engine.Stats)
//	GET    /metrics            Prometheus text exposition (engine + flow + HTTP)
//	GET    /healthz            liveness probe
//
// Lifecycle semantics: the engine retains only a bounded number of
// terminal jobs, so an ID that was once issued but has since been
// evicted answers 410 Gone rather than 404. When the
// engine runs in load-shed mode a full queue answers 429 Too Many
// Requests with a Retry-After hint instead of blocking the connection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"lily"
	"lily/internal/engine"
	"lily/internal/obs"
)

// maxBodyBytes bounds uploaded BLIF sources (8 MiB).
const maxBodyBytes = 8 << 20

// maxLongPoll caps the ?wait= long-poll duration so a single client
// cannot pin a connection indefinitely; longer requests are clamped.
const maxLongPoll = 60 * time.Second

// PrometheusContentType is the Content-Type of GET /metrics responses
// (Prometheus text exposition format v0.0.4).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// HTTP-layer metric names.
const (
	metricHTTPRequests  = "lily_http_requests_total"
	metricHTTPResponses = "lily_http_responses_total"
	metricHTTPDuration  = "lily_http_request_seconds"
	metricHTTPInFlight  = "lily_http_in_flight"
)

// serverMetrics bundles the HTTP handler's instruments. Route labels use
// the registered mux patterns (not raw URLs), so the cardinality is
// bounded by the route table.
type serverMetrics struct {
	requests  *obs.CounterVec // by route pattern
	responses *obs.CounterVec // by status class ("2xx", "4xx", ...)
	duration  *obs.Histogram
}

// Server routes lilyd's API onto an engine.
type Server struct {
	eng *engine.Engine
	mux *http.ServeMux
	reg *obs.Registry

	// defaultTarget fills JobOptions.Target when a request leaves it
	// empty. Zero value is TargetASIC, the historical behavior.
	defaultTarget lily.TechnologyTarget

	// Logger, when set before the server starts handling traffic, gets
	// one structured record per request (route, method, path, status,
	// duration). Nil disables request logging.
	Logger *slog.Logger

	metrics  serverMetrics
	inflight atomic.Int64
}

// Option customizes a Server at construction.
type Option func(*Server)

// WithDefaultTarget sets the technology target substituted into jobs
// that do not name one (lilyd -target). The substitution happens before
// option validation — and therefore before digest computation, so a node
// started with -target lut4 keys its cache under the lut4 digests.
func WithDefaultTarget(t lily.TechnologyTarget) Option {
	return func(s *Server) { s.defaultTarget = t }
}

// New builds the HTTP handler for an engine. The handler's own metrics
// are registered on the engine's registry so a single GET /metrics
// scrape covers the HTTP, engine, and flow layers.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), reg: eng.Registry()}
	for _, o := range opts {
		o(s)
	}
	s.metrics = serverMetrics{
		requests: s.reg.CounterVec(metricHTTPRequests,
			"HTTP requests handled, by registered route pattern.", "route"),
		responses: s.reg.CounterVec(metricHTTPResponses,
			"HTTP responses sent, by status class.", "class"),
		duration: s.reg.Histogram(metricHTTPDuration,
			"HTTP request handling time.", obs.DefBuckets),
	}
	s.reg.GaugeFunc(metricHTTPInFlight, "HTTP requests currently being handled.",
		func() float64 { return float64(s.inflight.Load()) })
	s.route("POST /v1/jobs", s.handleSubmit)
	s.route("GET /v1/jobs", s.handleList)
	s.route("GET /v1/jobs/{id}", s.handleStatus)
	s.route("GET /v1/jobs/{id}/result", s.handleResult)
	s.route("GET /v1/jobs/{id}/svg", s.handleSVG)
	s.route("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.route("GET /v1/benchmarks", s.handleBenchmarks)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /healthz", s.handleHealth)
	return s
}

// route registers a handler wrapped with request instrumentation: an
// in-flight gauge, per-route request counter, status-class counter,
// latency histogram, and (when Logger is set) one structured log record
// per request.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		s.metrics.requests.With(pattern).Inc()
		s.metrics.responses.With(statusClass(rec.status)).Inc()
		s.metrics.duration.Observe(elapsed.Seconds())
		if lg := s.Logger; lg != nil {
			lg.Info("request",
				slog.String("route", pattern),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("duration", elapsed),
			)
		}
	})
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// statusClass folds an HTTP status into its hundreds class ("2xx").
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SubmitRequest is the POST /v1/jobs body. Exactly one of Benchmark or
// BLIF selects the circuit.
type SubmitRequest struct {
	// Benchmark names a built-in circuit (GET /v1/benchmarks).
	Benchmark string `json:"benchmark,omitempty"`
	// BLIF is an inline combinational BLIF source.
	BLIF string `json:"blif,omitempty"`
	// SVG requests a layout rendering, served at /v1/jobs/{id}/svg.
	SVG bool `json:"svg,omitempty"`
	// EmitBLIF captures the mapped, placed netlist; the finished job's
	// status then carries its SHA-256 (the golden-harness hash) as
	// blif_sha256. Mutually exclusive with SVG.
	EmitBLIF bool `json:"emit_blif,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Options tunes the flow.
	Options JobOptions `json:"options"`
}

// JobOptions is the JSON surface of lily.FlowOptions.
type JobOptions struct {
	Mapper                    string  `json:"mapper,omitempty"`    // "lily" (default) | "mis" | "mis2.1"
	Objective                 string  `json:"objective,omitempty"` // "area" (default) | "delay"
	Library                   string  `json:"library,omitempty"`   // "big" (default) | "tiny"
	Target                    string  `json:"target,omitempty"`    // "asic" (default) | "lut4" | "lut6"
	WireWeight                float64 `json:"wire_weight,omitempty"`
	AutoTune                  bool    `json:"autotune,omitempty"`
	Verify                    bool    `json:"verify,omitempty"`
	PreOptimize               bool    `json:"pre_optimize,omitempty"`
	TwoPassDelay              bool    `json:"two_pass_delay,omitempty"`
	FanoutOptimize            bool    `json:"fanout_optimize,omitempty"`
	MaxFanout                 int     `json:"max_fanout,omitempty"`
	AnnealPlacement           bool    `json:"anneal_placement,omitempty"`
	ClockPeriodNS             float64 `json:"clock_period_ns,omitempty"`
	ReplaceEvery              int     `json:"replace_every,omitempty"`
	TreeMode                  bool    `json:"tree_mode,omitempty"`
	LayoutDrivenDecomposition bool    `json:"layout_driven_decomposition,omitempty"`
}

// ToFlowOptions converts the JSON options and validates them with
// lily.FlowOptions.Normalize. The options come back as spelled: the
// engine keys its cache on their canonical form.
func (o JobOptions) ToFlowOptions() (lily.FlowOptions, error) {
	opt := lily.FlowOptions{
		WireWeight:                o.WireWeight,
		AutoTune:                  o.AutoTune,
		VerifyEquivalence:         o.Verify,
		PreOptimize:               o.PreOptimize,
		TwoPassDelay:              o.TwoPassDelay,
		FanoutOptimize:            o.FanoutOptimize,
		MaxFanout:                 o.MaxFanout,
		AnnealPlacement:           o.AnnealPlacement,
		ClockPeriodNS:             o.ClockPeriodNS,
		ReplaceEvery:              o.ReplaceEvery,
		TreeMode:                  o.TreeMode,
		LayoutDrivenDecomposition: o.LayoutDrivenDecomposition,
	}
	var errs [4]error
	opt.Mapper, errs[0] = lily.ParseMapper(o.Mapper)
	opt.Objective, errs[1] = lily.ParseObjective(o.Objective)
	opt.Library, errs[2] = lily.ParseLibraryChoice(o.Library)
	opt.Target, errs[3] = lily.ParseTechnologyTarget(o.Target)
	if err := errors.Join(errs[:]...); err != nil {
		return lily.FlowOptions{}, err
	}
	if _, err := opt.Normalize(); err != nil {
		return lily.FlowOptions{}, err
	}
	return opt, nil
}

// resolve turns a submitted job into the engine's request form: it fills
// the server-wide default target into the options, then validates them
// and the artifact flags.
func (s *Server) resolve(req SubmitRequest) (engine.Request, error) {
	if req.Options.Target == "" {
		req.Options.Target = s.defaultTarget.String()
	}
	opt, err := req.Options.ToFlowOptions()
	if err != nil {
		return engine.Request{}, err
	}
	if req.TimeoutMS < 0 {
		// A negative duration would silently disable the engine's
		// per-job timeout instead of bounding it.
		return engine.Request{}, fmt.Errorf("timeout_ms must be >= 0 (got %d)", req.TimeoutMS)
	}
	if req.SVG && req.EmitBLIF {
		return engine.Request{}, fmt.Errorf("svg and emit_blif are mutually exclusive")
	}
	ereq := engine.Request{
		Benchmark: req.Benchmark,
		Options:   opt,
		RenderSVG: req.SVG,
		EmitBLIF:  req.EmitBLIF,
		Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	if req.BLIF != "" {
		ereq.BLIF = []byte(req.BLIF)
	}
	return ereq, nil
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Status string `json:"status_url"`
	Result string `json:"result_url"`
	SVG    string `json:"svg_url,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeBody reads a request body of at most maxBodyBytes holding exactly
// one JSON value into v. Unknown fields and anything but whitespace after
// the value are errors. w may be nil outside an HTTP handler.
func decodeBody(w http.ResponseWriter, body io.ReadCloser, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ereq, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The job must outlive this HTTP request: detach it from r.Context().
	j, err := s.eng.Submit(context.Background(), ereq)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, engine.ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, engine.ErrQueueFull):
			// Load shed: tell the client to back off and retry rather
			// than holding its connection open against a full queue.
			w.Header().Set("Retry-After", "1")
			status = http.StatusTooManyRequests
		}
		writeError(w, status, err)
		return
	}
	resp := SubmitResponse{
		ID:     j.ID(),
		State:  j.Status().State,
		Status: "/v1/jobs/" + j.ID(),
		Result: "/v1/jobs/" + j.ID() + "/result",
	}
	if req.SVG {
		resp.SVG = "/v1/jobs/" + j.ID() + "/svg"
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Jobs())
}

// lookupJob resolves {id}, distinguishing IDs that were never issued
// (404) from IDs the engine once issued but no longer retains — evicted
// or aged out — which answer 410 Gone.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*engine.Job, bool) {
	id := r.PathValue("id")
	if j, ok := s.eng.Job(id); ok {
		return j, true
	}
	if s.eng.Forgotten(id) {
		writeError(w, http.StatusGone,
			fmt.Errorf("job %s is no longer retained (evicted)", id))
	} else {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return nil, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	// Optional long-poll: ?wait=5s blocks until the job terminates or the
	// wait elapses, then reports whatever state the job is in. The wait
	// is clamped to maxLongPoll so one client cannot pin a connection for
	// hours; unparseable or negative values are rejected.
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait duration %q", waitStr))
			return
		}
		if d > maxLongPoll {
			d = maxLongPoll
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		_, _ = j.Wait(ctx)
		cancel()
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	_, out, ok := s.finishedJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, out.Result)
}

func (s *Server) handleSVG(w http.ResponseWriter, r *http.Request) {
	j, out, ok := s.finishedJob(w, r)
	if !ok {
		return
	}
	if len(out.SVG) == 0 {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s was submitted without \"svg\": true", j.ID()))
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out.SVG)
}

// finishedJob resolves {id} to a successfully finished job, writing the
// appropriate error response otherwise.
func (s *Server) finishedJob(w http.ResponseWriter, r *http.Request) (*engine.Job, *engine.Outcome, bool) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return nil, nil, false
	}
	st := j.Status()
	switch st.State {
	case "done":
		return j, j.Outcome(), true
	case "failed", "canceled":
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("job %s %s: %s", j.ID(), st.State, st.Error))
		return nil, nil, false
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; poll %s", j.ID(), st.State, "/v1/jobs/"+j.ID()))
		return nil, nil, false
	}
}

// TraceResponse is the GET /v1/jobs/{id}/trace body: the job's span
// forest as recorded so far. Running spans carry duration_ns = -1, so a
// live job serves a partial trace that fills in as phases complete. The
// trace shares the job's retention lifecycle: evicted jobs answer 410
// Gone here exactly as on the status endpoint.
type TraceResponse struct {
	ID    string          `json:"id"`
	State string          `json:"state"`
	Spans []*obs.SpanNode `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if !j.Traced() {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s has no trace (engine tracing is disabled)", j.ID()))
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		ID:    j.ID(),
		State: j.Status().State,
		Spans: j.Trace(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PrometheusContentType)
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, lily.BenchmarkNames())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are already out; nothing better to do than drop it.
		_ = err
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
