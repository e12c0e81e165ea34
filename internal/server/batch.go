// Batch API: submit a whole suite of jobs in one round trip and stream
// per-job results as they land. POST /v1/batches fans the jobs out
// across the engine's workers; GET /v1/batches/{id} answers NDJSON, one
// line per job in completion order, flushed as each result arrives, so a
// suite client overlaps its processing with the engine's compute.

package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lily"
	"lily/internal/engine"
)

const (
	// maxBatchJobs bounds one batch (the full benchmark suite is ~30
	// jobs; 1024 leaves room for parameter sweeps).
	maxBatchJobs = 1024
	// maxRetainedBatches bounds the registry; the oldest batch is
	// evicted first and its ID answers 410 Gone afterwards. Jobs keep
	// their own (engine) retention either way.
	maxRetainedBatches = 128
)

// batchEntry pairs one submitted job with its position in the request.
type batchEntry struct {
	index     int
	benchmark string
	job       *engine.Job
}

// batch is one accepted suite submission.
type batch struct {
	id      string
	seq     uint64
	created time.Time
	entries []batchEntry
}

// terminalCount reports how many of the batch's jobs have finished.
func (b *batch) terminalCount() int {
	n := 0
	for _, e := range b.entries {
		select {
		case <-e.job.Done():
			n++
		default:
		}
	}
	return n
}

// batchRegistry is a bounded, creation-ordered batch store. The zero
// value is ready to use.
type batchRegistry struct {
	mu    sync.Mutex
	seq   uint64
	byID  map[string]*batch
	order []*batch // creation order; evicted from the front
}

func (r *batchRegistry) add(entries []batchEntry) *batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = make(map[string]*batch)
	}
	r.seq++
	b := &batch{
		id:      fmt.Sprintf("batch-%06d", r.seq),
		seq:     r.seq,
		created: time.Now(),
		entries: entries,
	}
	r.byID[b.id] = b
	r.order = append(r.order, b)
	for len(r.order) > maxRetainedBatches {
		evict := r.order[0]
		r.order = r.order[1:]
		delete(r.byID, evict.id)
	}
	return b
}

func (r *batchRegistry) get(id string) (*batch, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.byID[id]
	return b, ok
}

// forgotten reports whether id names a batch this registry once issued
// but evicted — the 404-vs-410 distinction, tombstone-free because IDs
// are dense over a monotone sequence (same scheme as engine.Forgotten).
func (r *batchRegistry) forgotten(id string) bool {
	num, ok := strings.CutPrefix(id, "batch-")
	if !ok {
		return false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil || fmt.Sprintf("batch-%06d", seq) != id {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq == 0 || seq > r.seq {
		return false
	}
	_, present := r.byID[id]
	return !present
}

func (r *batchRegistry) list() []*batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*batch, len(r.order))
	copy(out, r.order)
	return out
}

// BatchSubmitRequest is the POST /v1/batches body.
type BatchSubmitRequest struct {
	// Jobs are submitted atomically: either every job is accepted or the
	// whole batch is rejected (and any partially submitted jobs are
	// cancelled).
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchJobRef identifies one job of an accepted batch.
type BatchJobRef struct {
	Index     int    `json:"index"`
	JobID     string `json:"job_id"`
	Digest    string `json:"digest"`
	Benchmark string `json:"benchmark,omitempty"`
}

// BatchSubmitResponse acknowledges an accepted batch.
type BatchSubmitResponse struct {
	ID     string        `json:"id"`
	Jobs   int           `json:"jobs"`
	Stream string        `json:"stream_url"`
	Refs   []BatchJobRef `json:"refs"`
}

// BatchSummary is one row of GET /v1/batches.
type BatchSummary struct {
	ID        string    `json:"id"`
	Jobs      int       `json:"jobs"`
	Done      int       `json:"done"`
	CreatedAt time.Time `json:"created_at"`
}

// BatchResult is one NDJSON line of GET /v1/batches/{id}: a finished
// job's identity, provenance flags, and result. BLIFSHA256 is present
// when the job was submitted with emit_blif — it is the same hash the
// golden harness pins, so a suite client can assert determinism line by
// line.
type BatchResult struct {
	Index      int              `json:"index"`
	JobID      string           `json:"job_id"`
	Benchmark  string           `json:"benchmark,omitempty"`
	Digest     string           `json:"digest"`
	State      string           `json:"state"`
	CacheHit   bool             `json:"cache_hit,omitempty"`
	Error      string           `json:"error,omitempty"`
	BLIFSHA256 string           `json:"blif_sha256,omitempty"`
	Result     *lily.FlowResult `json:"result,omitempty"`
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if err := decodeBody(w, r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 || len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch must hold 1..%d jobs (got %d)", maxBatchJobs, len(req.Jobs)))
		return
	}
	// Validate everything before submitting anything, so a malformed job
	// in the middle cannot leave half a batch running.
	ereqs := make([]engine.Request, len(req.Jobs))
	for i, jr := range req.Jobs {
		var err error
		if ereqs[i], err = s.resolve(jr); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return
		}
	}
	entries := make([]batchEntry, 0, len(ereqs))
	for i, ereq := range ereqs {
		// Detached from r.Context(): the jobs must outlive this HTTP
		// request (same as single submit).
		j, err := s.eng.Submit(context.Background(), ereq)
		if err != nil {
			for _, e := range entries {
				e.job.Cancel()
			}
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, engine.ErrClosed):
				status = http.StatusServiceUnavailable
			case errors.Is(err, engine.ErrQueueFull):
				w.Header().Set("Retry-After", "1")
				status = http.StatusTooManyRequests
			}
			writeError(w, status, fmt.Errorf("job %d: %w", i, err))
			return
		}
		entries = append(entries, batchEntry{index: i, benchmark: req.Jobs[i].Benchmark, job: j})
	}
	b := s.batches.add(entries)
	resp := BatchSubmitResponse{
		ID:     b.id,
		Jobs:   len(entries),
		Stream: "/v1/batches/" + b.id,
		Refs:   make([]BatchJobRef, len(entries)),
	}
	for i, e := range entries {
		resp.Refs[i] = BatchJobRef{
			Index:     e.index,
			JobID:     e.job.ID(),
			Digest:    e.job.Key(),
			Benchmark: e.benchmark,
		}
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleBatchList(w http.ResponseWriter, r *http.Request) {
	batches := s.batches.list()
	out := make([]BatchSummary, len(batches))
	for i, b := range batches {
		out[i] = BatchSummary{
			ID:        b.id,
			Jobs:      len(b.entries),
			Done:      b.terminalCount(),
			CreatedAt: b.created,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// batchStreamWriteTimeout bounds each NDJSON line write. A client that
// stops reading (but keeps the connection open) fills the kernel send
// buffer; without a deadline the encoder's Write blocks forever and the
// handler goroutine — plus its per-job waiter goroutines — is pinned for
// the life of the connection. Variable so the regression test can tighten
// it without stalling for a minute.
var batchStreamWriteTimeout = 60 * time.Second

// handleBatchStream writes one NDJSON line per job, in completion order,
// flushing after each so results stream while the rest of the batch is
// still computing. The stream ends when every job has been reported; a
// client disconnect — or one that stalls past batchStreamWriteTimeout —
// stops it early without touching the jobs.
func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, ok := s.batches.get(id)
	if !ok {
		if s.batches.forgotten(id) {
			writeError(w, http.StatusGone,
				fmt.Errorf("batch %s is no longer retained (evicted)", id))
		} else {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", id))
		}
		return
	}
	ctx := r.Context()
	completed := make(chan int, len(b.entries))
	for i := range b.entries {
		go func(i int) {
			select {
			case <-b.entries[i].job.Done():
				completed <- i
			case <-ctx.Done():
			}
		}(i)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// ResponseController reaches Flush/SetWriteDeadline through wrapper
	// writers (the metrics statusRecorder) via their Unwrap chain — a
	// plain w.(http.Flusher) assertion sees only the wrapper and fails.
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for n := 0; n < len(b.entries); n++ {
		select {
		case i := <-completed:
			// Arm a per-line write deadline so a stalled reader cannot
			// pin this goroutine once the TCP window fills. The error is
			// ignored: on writers without deadline support we just keep
			// the old blocking behavior.
			_ = rc.SetWriteDeadline(time.Now().Add(batchStreamWriteTimeout))
			if err := enc.Encode(batchResult(b.entries[i])); err != nil {
				return // client gone or stalled past the deadline
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
	// Disarm the deadline so the server's connection teardown isn't
	// bounded by the last line's remaining budget.
	_ = rc.SetWriteDeadline(time.Time{})
}

// batchResult renders one terminal job as its stream line.
func batchResult(e batchEntry) BatchResult {
	st := e.job.Status()
	res := BatchResult{
		Index:     e.index,
		JobID:     st.ID,
		Benchmark: e.benchmark,
		Digest:    st.Digest,
		State:     st.State,
		CacheHit:  st.CacheHit,
		Error:     st.Error,
	}
	if out := e.job.Outcome(); out != nil {
		res.Result = out.Result
		if len(out.MappedBLIF) > 0 {
			sum := sha256.Sum256(out.MappedBLIF)
			res.BLIFSHA256 = hex.EncodeToString(sum[:])
		}
	}
	return res
}
