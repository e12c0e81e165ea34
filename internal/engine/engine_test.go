package engine

import (
	"context"
	"errors"
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
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	j2, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	out, err := j2.Wait(ctx)
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
	if j1.Key() != j2.Key() {
		t.Fatalf("identical requests got different keys: %s vs %s", j1.Key(), j2.Key())
	}
}

func TestSingleflightDedupesInflightRequests(t *testing.T) {
	gate := make(chan struct{})
	var runs atomic.Int64
	e := New(Config{Workers: 2, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		runs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	req := Request{Benchmark: "b9"}
	j1, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := e.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Both jobs must be picked up (one executing, one dedup-waiting)
	// before the gate opens, or this would just be a cache hit.
	waitFor(t, "dedup registered", func() bool { return e.Stats().Deduped == 1 })
	close(gate)

	for _, j := range []*Job{j1, j2} {
		out, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %s: %v", j.ID(), err)
		}
		if out.Result.Circuit != "b9" {
			t.Fatalf("job %s: bad result %+v", j.ID(), out.Result)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("runner invoked %d times, want 1 (singleflight)", got)
	}
	if !j2.Status().Deduped && !j1.Status().Deduped {
		t.Fatalf("neither job marked deduped")
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
	<-started
	j.Cancel()
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
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
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
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
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
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
		if _, err := j.Wait(ctx); err != nil {
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
