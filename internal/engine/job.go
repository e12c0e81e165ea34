package engine

import (
	"context"
	"sync"
	"time"

	"lily"
	"lily/internal/obs"
)

// State is the lifecycle state of a job.
type State int32

const (
	// StateQueued means the job is waiting for a worker.
	StateQueued State = iota
	// StateRunning means a worker is executing the job.
	StateRunning
	// StateDone means the job finished with a result.
	StateDone
	// StateFailed means the job finished with an error.
	StateFailed
	// StateCanceled means the job was cancelled or timed out.
	StateCanceled
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request describes one mapping job. Exactly one of Benchmark, BLIF, or
// Circuit selects the input circuit.
type Request struct {
	// Benchmark names a built-in synthetic benchmark (see
	// lily.BenchmarkNames).
	Benchmark string
	// BLIF holds a combinational BLIF source to map.
	BLIF []byte
	// Circuit is an in-memory circuit; it is cloned at submission so the
	// caller's copy is never shared with a worker goroutine.
	Circuit *lily.Circuit
	// Options parameterizes the flow.
	Options lily.FlowOptions
	// RenderSVG additionally renders the finished layout as an SVG image
	// into Outcome.SVG. Part of the cache key.
	RenderSVG bool
	// EmitBLIF captures the mapped, placed netlist as SIS-style BLIF into
	// Outcome.MappedBLIF (the byte stream the golden harness hashes), via
	// the single-flow pipeline — like WriteMappedBLIF, AutoTune's
	// portfolio does not apply. Part of the cache key. Mutually exclusive
	// with RenderSVG.
	EmitBLIF bool
	// Timeout bounds this job's run time, overriding the engine's
	// DefaultTimeout; 0 means use the default.
	Timeout time.Duration
}

// Outcome is the product of a completed job. Outcomes may be shared between
// jobs through the result cache and must be treated as immutable.
type Outcome struct {
	Result *lily.FlowResult
	// SVG is the rendered layout when the request asked for it.
	SVG []byte
	// MappedBLIF is the mapped, placed netlist when the request set
	// EmitBLIF — the deterministic byte stream whose SHA-256 the golden
	// harness (and the service smoke test) pins.
	MappedBLIF []byte
	// blifSHA256 is the hex SHA-256 of MappedBLIF, set by the engine
	// before the outcome is cached or shared, so a hit reports the hash
	// its miss computed.
	blifSHA256 string
}

// Job is a handle on a submitted request.
type Job struct {
	id      string
	seq     uint64 // engine-wide submit sequence; orders job listings
	key     string
	req     Request
	circuit *lily.Circuit

	ctx    context.Context
	cancel context.CancelFunc

	// tracer records the job's phase-span tree when the engine runs with
	// tracing enabled; nil otherwise. It lives and dies with the job:
	// retained while the job is in the registry, dropped with it on
	// eviction or age GC.
	tracer *obs.Tracer

	mu        sync.Mutex
	state     State
	outcome   *Outcome
	err       error
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

// ID returns the engine-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Cancel cancels the job; a queued job is dropped when a worker picks it
// up, a running job is interrupted at its next context checkpoint.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job terminates or ctx is done, returning the
// outcome or the job's (or ctx's) error.
func (j *Job) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.outcome, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Outcome returns the result of a terminal job (nil if unfinished/failed).
func (j *Job) Outcome() *Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome
}

// Traced reports whether the engine recorded a trace for this job.
func (j *Job) Traced() bool { return j.tracer != nil }

// Trace snapshots the job's span tree. Safe while the job is still
// running (live spans appear with duration -1); nil when the engine ran
// without tracing.
func (j *Job) Trace() []*obs.SpanNode { return j.tracer.Tree() }

// Status is a point-in-time snapshot of a job's lifecycle and metrics.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Digest is the content-addressed request digest (SHA-256 of the
	// canonical BLIF + normalized options + artifact flags): the cache
	// key. Clients correlate work on it — two jobs with equal digests
	// have byte-identical outcomes.
	Digest      string        `json:"digest"`
	Benchmark   string        `json:"benchmark,omitempty"`
	Circuit     string        `json:"circuit,omitempty"`
	CacheHit    bool          `json:"cache_hit,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   time.Time     `json:"started_at"`
	FinishedAt  time.Time     `json:"finished_at"`
	QueueWait   time.Duration `json:"queue_wait_ns"`
	RunTime     time.Duration `json:"run_time_ns"`
	Error       string        `json:"error,omitempty"`
	// BLIFSHA256 is the SHA-256 of the mapped netlist of a finished job
	// submitted with EmitBLIF: the hash testdata/golden.json pins.
	BLIFSHA256 string `json:"blif_sha256,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state.String(),
		Digest:      j.key,
		Benchmark:   j.req.Benchmark,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	if j.circuit != nil {
		st.Circuit = j.circuit.Name()
	}
	if !j.started.IsZero() {
		st.QueueWait = j.started.Sub(j.submitted)
		if !j.finished.IsZero() {
			st.RunTime = j.finished.Sub(j.started)
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.outcome != nil {
		st.BLIFSHA256 = j.outcome.blifSHA256
	}
	return st
}

// start transitions the job to StateRunning and records the queue wait.
func (j *Job) start(now time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	return now.Sub(j.submitted)
}

// finish moves the job to a terminal state exactly once, returning the
// run time (zero if the job never started) and whether this call was the
// transitioning one (false if the job was already terminal). It does not
// wake waiters: the transitioning caller updates the engine's counters
// first and then calls wake, so a caller woken by Wait always
// sees its own job in Stats.
func (j *Job) finish(state State, out *Outcome, err error) (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return 0, false
	}
	j.state = state
	j.outcome = out
	j.err = err
	j.finished = time.Now()
	j.cancel() // release the context's resources
	if j.started.IsZero() {
		return 0, true
	}
	return j.finished.Sub(j.started), true
}

// wake releases the job's waiters; the transitioning finish's caller
// calls it once, after accounting for the job.
func (j *Job) wake() { close(j.done) }

func (j *Job) markCacheHit() {
	j.mu.Lock()
	j.cacheHit = true
	j.mu.Unlock()
}
