package engine

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lily"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitTimeout bounds every blocking wait in this package's tests. It is
// far above any wait's normal length: it makes a hang fail with a dump
// of every goroutine instead of sitting until go test's own timeout.
const waitTimeout = 2 * time.Minute

// await blocks until ch is closed or sends and reports true. If
// waitTimeout passes first, it fails t with the stack of every
// goroutine, so the failure names the wait that hung, and reports false.
// It fails through t.Errorf, which a fake runner's goroutine may call
// too; on the test goroutine, stop the test when it reports false.
func await(t *testing.T, what string, ch <-chan struct{}) bool {
	t.Helper()
	timer := time.NewTimer(waitTimeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
	}
	buf := make([]byte, 1<<20)
	t.Errorf("timed out after %v waiting for %s; goroutines:\n%s", waitTimeout, what, buf[:runtime.Stack(buf, true)])
	return false
}

// awaitJob is j.Wait under await's deadline: it stops the test if j is
// not terminal within waitTimeout.
func awaitJob(t *testing.T, j *Job) (*Outcome, error) {
	t.Helper()
	if !await(t, "job "+j.ID(), j.done) {
		t.FailNow()
	}
	return j.Wait(context.Background())
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// fakeOutcome is what fake runners return.
func fakeOutcome(name string) *Outcome {
	return &Outcome{Result: &lily.FlowResult{Circuit: name, Gates: 1}}
}

func TestRealFlowWithSVG(t *testing.T) {
	e := New(Config{Workers: 2})
	defer shutdown(t, e)
	out, err := e.Run(context.Background(), Request{
		Benchmark: "misex1",
		Options:   lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea},
		RenderSVG: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Result == nil || out.Result.Circuit != "misex1" || out.Result.Gates == 0 {
		t.Fatalf("bad result: %+v", out.Result)
	}
	if !strings.Contains(string(out.SVG), "<svg") {
		t.Fatalf("SVG output missing <svg element (%d bytes)", len(out.SVG))
	}
}

func TestCacheHitOnRepeatSubmission(t *testing.T) {
	var runs atomic.Int64
	e := New(Config{Workers: 2, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		runs.Add(1)
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	req := Request{Benchmark: "misex1"}
	ctx := context.Background()
	j1, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := awaitJob(t, j1); err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	j2, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	out, err := awaitJob(t, j2)
	if err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	if out.Result.Circuit != "misex1" {
		t.Fatalf("bad cached result: %+v", out.Result)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times, want 1 (cache hit)", got)
	}
	if !j2.Status().CacheHit {
		t.Fatalf("second job not marked as cache hit: %+v", j2.Status())
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if d1, d2 := j1.Status().Digest, j2.Status().Digest; d1 != d2 {
		t.Fatalf("identical requests got different keys: %s vs %s", d1, d2)
	}
}

// TestConcurrentIdenticalJobsBothRun: two identical requests in flight
// together each run the pipeline and end with equal outcomes, a third
// submission is a cache hit, and the cache counters in Stats agree with
// the metrics registry.
func TestConcurrentIdenticalJobsBothRun(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Config{Workers: 2, Trace: true, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		out := fakeOutcome(req.Benchmark)
		out.MappedBLIF = []byte(".model " + req.Benchmark + "\n.end\n")
		return out, nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	req := Request{Benchmark: "b9", EmitBLIF: true}
	j1, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Both jobs must be in the runner before the gate opens, or the
	// second would just be a cache hit.
	waitFor(t, "both jobs running", func() bool { return runs.Load() == 2 })
	close(gate)

	var outs [2]*Outcome
	for i, j := range []*Job{j1, j2} {
		if outs[i], err = awaitJob(t, j); err != nil {
			t.Fatalf("wait %s: %v", j.ID(), err)
		}
		if st := j.Status(); st.State != "done" || st.CacheHit {
			t.Fatalf("job %s: state %s cache_hit %v, want done from its own run", j.ID(), st.State, st.CacheHit)
		}
	}
	if outs[0].Result.Circuit != outs[1].Result.Circuit || !bytes.Equal(outs[0].MappedBLIF, outs[1].MappedBLIF) {
		t.Fatalf("identical requests produced different outcomes: %+v vs %+v", outs[0], outs[1])
	}
	h1, h2 := j1.Status().BLIFSHA256, j2.Status().BLIFSHA256
	if h1 == "" || h1 != h2 {
		t.Fatalf("blif_sha256 = %q and %q, want equal and set", h1, h2)
	}

	j3, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	if _, err := awaitJob(t, j3); err != nil {
		t.Fatalf("wait %s: %v", j3.ID(), err)
	}
	if st := j3.Status(); !st.CacheHit || st.BLIFSHA256 != h1 {
		t.Fatalf("third submission: cache_hit %v blif_sha256 %q, want a hit with %q", st.CacheHit, st.BLIFSHA256, h1)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("runner invoked %d times, want 2", got)
	}

	st := e.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("stats hits/misses = %d/%d, want 1/2", st.CacheHits, st.CacheMisses)
	}
	if got := e.metrics.cacheHits.Value(); got != st.CacheHits {
		t.Errorf("lily_cache_hits_total = %d, Stats().CacheHits = %d", got, st.CacheHits)
	}
	if got := e.metrics.cacheMisses.Value(); got != st.CacheMisses {
		t.Errorf("lily_cache_misses_total = %d, Stats().CacheMisses = %d", got, st.CacheMisses)
	}
	for _, j := range []*Job{j1, j2, j3} {
		if len(j.Trace()) == 0 {
			t.Errorf("done job %s (cache_hit=%v) has no trace", j.ID(), j.Status().CacheHit)
		}
	}
}

func TestCancellationMidJob(t *testing.T) {
	started := make(chan struct{})
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer shutdown(t, e)

	j, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !await(t, "the runner to start", started) {
		t.FailNow()
	}
	j.Cancel()
	if _, err := awaitJob(t, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want context.Canceled", err)
	}
	if st := j.Status(); st.State != "canceled" {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st := e.Stats(); st.Canceled != 1 {
		t.Fatalf("stats.Canceled = %d, want 1", st.Canceled)
	}
}

func TestCancelRealFlowMidJob(t *testing.T) {
	// End-to-end: a real Lily mapping run on a mid-size circuit must stop
	// promptly when its context is cancelled (the cone loop and placement
	// iterations poll ctx).
	e := New(Config{Workers: 1})
	defer shutdown(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	j, err := e.Submit(ctx, Request{
		Benchmark: "C5315",
		Options:   lily.FlowOptions{Mapper: lily.MapperLily},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job running", func() bool { return j.Status().State == "running" })
	cancel()
	if _, err := awaitJob(t, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait error = %v, want context.Canceled", err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer shutdown(t, e)

	j, err := e.Submit(context.Background(), Request{Benchmark: "misex1", Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := awaitJob(t, j); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait error = %v, want context.DeadlineExceeded", err)
	}
	if st := j.Status(); st.State != "canceled" {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

func TestPanicContainment(t *testing.T) {
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		if req.Benchmark == "misex1" {
			panic("kaboom")
		}
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	if _, err := e.Run(ctx, Request{Benchmark: "misex1"}); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job error = %v, want panic failure", err)
	}
	// The pool survives: the same worker executes the next job.
	out, err := e.Run(ctx, Request{Benchmark: "b9"})
	if err != nil {
		t.Fatalf("run after panic: %v", err)
	}
	if out.Result.Circuit != "b9" {
		t.Fatalf("bad result after panic: %+v", out.Result)
	}
	st := e.Stats()
	if st.Panics != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 panic, 1 failed, 1 completed", st)
	}
}

// TestWakeAfterAccounting: a job wakes its waiters only after the engine
// has counted it, so a caller woken by Wait or Run always finds its
// own job in Stats. The test holds the engine lock while a running job
// is canceled: the job can mark itself terminal, but it must not wake
// its waiters before it can take the lock and count itself.
func TestWakeAfterAccounting(t *testing.T) {
	started := make(chan struct{})
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	j, err := e.Submit(ctx, Request{Benchmark: "b9"})
	if err != nil {
		t.Fatal(err)
	}
	if !await(t, "the runner to start", started) {
		t.FailNow()
	}

	e.mu.Lock()
	j.Cancel()
	// Wait until the job is terminal without failing the test while the
	// lock is held: a deferred shutdown would block on it.
	terminal := false
	for deadline := time.Now().Add(5 * time.Second); !terminal && time.Now().Before(deadline); {
		terminal = j.Status().State == "canceled"
		time.Sleep(time.Millisecond)
	}
	early, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	_, err = j.Wait(early)
	cancel()
	e.mu.Unlock()
	if !terminal {
		t.Fatalf("canceled job never became terminal: %+v", j.Status())
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job woke its waiters before the engine counted it (Wait = %v)", err)
	}
	if _, err := awaitJob(t, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("job Wait = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Canceled != 1 {
		t.Fatalf("woken job not counted: stats = %+v, want 1 canceled", st)
	}
}

func TestShutdownDrainsInFlightJobs(t *testing.T) {
	var runs atomic.Int64
	e := New(Config{Workers: 2, CacheEntries: -1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		time.Sleep(20 * time.Millisecond)
		runs.Add(1)
		return fakeOutcome(req.Benchmark), nil
	}})

	ctx := context.Background()
	var jobs []*Job
	names := []string{"misex1", "b9", "C432", "e64", "apex7", "duke2"}
	for _, n := range names {
		j, err := e.Submit(ctx, Request{Benchmark: n})
		if err != nil {
			t.Fatalf("submit %s: %v", n, err)
		}
		jobs = append(jobs, j)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != "done" {
			t.Fatalf("job %s drained to %s, want done", j.ID(), st.State)
		}
	}
	if got := runs.Load(); got != int64(len(names)) {
		t.Fatalf("%d jobs ran, want %d", got, len(names))
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "misex1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown = %v, want ErrClosed", err)
	}
}

func TestExpiredShutdownCancelsJobs(t *testing.T) {
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		<-ctx.Done() // honours cancellation, never finishes on its own
		return nil, ctx.Err()
	}})
	j, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job running", func() bool { return j.Status().State == "running" })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if st := j.Status(); st.State != "canceled" {
		t.Fatalf("job state after expired shutdown = %s, want canceled", st.State)
	}
}

func TestLRUEviction(t *testing.T) {
	var runs atomic.Int64
	e := New(Config{Workers: 1, CacheEntries: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		runs.Add(1)
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	for _, n := range []string{"misex1", "b9", "misex1"} {
		if _, err := e.Run(ctx, Request{Benchmark: n}); err != nil {
			t.Fatalf("run %s: %v", n, err)
		}
	}
	// b9 evicted misex1, so the third run misses again.
	if got := runs.Load(); got != 3 {
		t.Fatalf("runner invoked %d times, want 3 (capacity-1 LRU)", got)
	}
	if st := e.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}
}

func TestRequestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	ctx := context.Background()

	if _, err := e.Submit(ctx, Request{}); err == nil {
		t.Fatalf("empty request accepted")
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "misex1", BLIF: []byte(".model x\n.end\n")}); err == nil {
		t.Fatalf("ambiguous request accepted")
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "no-such-circuit"}); err == nil {
		t.Fatalf("unknown benchmark accepted")
	}
	bad := Request{Benchmark: "misex1", Options: lily.FlowOptions{Mapper: lily.MapperMIS, Target: lily.TargetLUT4}}
	if _, err := e.Submit(ctx, bad); err == nil || !strings.Contains(err.Error(), "requires the lily mapper") {
		t.Fatalf("Submit accepted options Normalize rejects (err %v)", err)
	}
	if _, ok := e.Job("job-999999"); ok {
		t.Fatalf("lookup of unknown job succeeded")
	}
}

func TestKeyNormalization(t *testing.T) {
	c, err := lily.GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	var blif []byte
	{
		var sb strings.Builder
		if err := c.WriteBLIF(&sb); err != nil {
			t.Fatal(err)
		}
		blif = []byte(sb.String())
	}
	key := func(opt lily.FlowOptions, svg bool) string {
		t.Helper()
		k, err := requestKey(blif, opt, svg, false)
		if err != nil {
			t.Fatalf("requestKey(%+v): %v", opt, err)
		}
		return k
	}
	base := lily.FlowOptions{Mapper: lily.MapperLily}
	weighted := base
	weighted.WireWeight = 1.0
	if key(base, false) != key(weighted, false) {
		t.Fatalf("WireWeight 0 and 1.0 should share a cache key")
	}
	reduced := base
	reduced.WireWeight = 0.5
	if key(base, false) == key(reduced, false) {
		t.Fatalf("different wire weights must not collide")
	}
	if key(base, false) == key(base, true) {
		t.Fatalf("SVG flag must be part of the key")
	}
	mis := lily.FlowOptions{Mapper: lily.MapperMIS}
	misTuned := mis
	misTuned.ReplaceEvery = 7 // Lily-only knob: ignored by the MIS flow
	if key(mis, false) != key(misTuned, false) {
		t.Fatalf("Lily-only knobs should normalize away under MIS")
	}
	if _, err := requestKey(blif, lily.FlowOptions{WireWeight: -1}, false, false); err == nil {
		t.Fatalf("options Normalize rejects must have no key")
	}
}

func TestJobsOrderedBySubmitSequence(t *testing.T) {
	e := New(Config{Workers: 1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	// Seed the counter so the IDs cross the six-digit zero-padding
	// boundary: "job-1000000" sorts before "job-999999" as a string, so
	// ordering the listing by ID would misreport the submit order here.
	e.seq.Store(999998)

	ctx := context.Background()
	var want []string
	for i := 0; i < 4; i++ {
		j, err := e.Submit(ctx, Request{Benchmark: "misex1"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := awaitJob(t, j); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		want = append(want, j.ID())
	}
	got := e.Jobs()
	if len(got) != len(want) {
		t.Fatalf("Jobs() returned %d statuses, want %d", len(got), len(want))
	}
	for i, st := range got {
		if st.ID != want[i] {
			t.Fatalf("Jobs()[%d].ID = %s, want %s (submit order)", i, st.ID, want[i])
		}
	}
}

// TestSVGEmitBLIFExclusive pins the submit-time validation.
func TestSVGEmitBLIFExclusive(t *testing.T) {
	e := New(Config{Workers: 1, Run: instantRunner})
	defer shutdown(t, e)
	_, err := e.Submit(context.Background(), Request{
		Benchmark: "misex1", RenderSVG: true, EmitBLIF: true,
	})
	if err == nil {
		t.Fatalf("Submit accepted RenderSVG+EmitBLIF")
	}
}

// TestEmitBLIFProducesMappedNetlist runs the real pipeline once and
// checks the artifact plumbing end to end: the outcome carries a
// non-empty mapped BLIF and the result is intact.
func TestEmitBLIFProducesMappedNetlist(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	out, err := e.Run(context.Background(), Request{
		Benchmark: "misex1",
		Options:   lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea},
		EmitBLIF:  true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.MappedBLIF) == 0 {
		t.Fatalf("EmitBLIF run produced no mapped netlist")
	}
	if out.Result == nil || out.Result.Gates == 0 {
		t.Fatalf("bad result alongside mapped BLIF: %+v", out.Result)
	}
}
