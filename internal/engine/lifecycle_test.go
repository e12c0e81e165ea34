package engine

// Job-lifecycle tests: bounded terminal-job retention (eviction order,
// age GC, soak), goroutines stopped by Shutdown, and load-shed
// admission control.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"lily"
)

// instantRunner completes every job immediately.
func instantRunner(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
	return fakeOutcome(req.Benchmark), nil
}

func TestNegativeTimeoutRejectedAtSubmit(t *testing.T) {
	e := New(Config{Workers: 1, Run: instantRunner})
	defer shutdown(t, e)
	_, err := e.Submit(context.Background(), Request{Benchmark: "misex1", Timeout: -time.Second})
	if err == nil {
		t.Fatalf("negative timeout accepted")
	}
	if st := e.Stats(); st.Submitted != 0 || st.Jobs != 0 {
		t.Fatalf("rejected submission left traces: %+v", st)
	}
}

func TestRegistryEvictsOldestTerminalFirst(t *testing.T) {
	e := New(Config{Workers: 1, MaxRetainedJobs: 3, CacheEntries: -1, Run: instantRunner})
	defer shutdown(t, e)

	ctx := context.Background()
	names := []string{"misex1", "b9", "C432", "e64", "apex7", "duke2"}
	var ids []string
	for _, n := range names {
		j, err := e.Submit(ctx, Request{Benchmark: n})
		if err != nil {
			t.Fatalf("submit %s: %v", n, err)
		}
		if _, err := awaitJob(t, j); err != nil {
			t.Fatalf("wait %s: %v", n, err)
		}
		ids = append(ids, j.ID())
	}

	got := e.Jobs()
	if len(got) != 3 {
		t.Fatalf("registry holds %d jobs, want 3", len(got))
	}
	for i, st := range got {
		if want := ids[3+i]; st.ID != want {
			t.Fatalf("retained[%d] = %s, want %s (oldest-first eviction)", i, st.ID, want)
		}
	}
	for _, id := range ids[:3] {
		if _, ok := e.Job(id); ok {
			t.Fatalf("evicted job %s still resolvable", id)
		}
		if !e.Forgotten(id) {
			t.Fatalf("evicted job %s not reported Forgotten", id)
		}
	}
	for _, id := range ids[3:] {
		if e.Forgotten(id) {
			t.Fatalf("retained job %s reported Forgotten", id)
		}
	}
	// IDs the engine never issued are unknown, not forgotten.
	for _, id := range []string{"job-999999", "nonsense", "job-abc", "job-000000"} {
		if e.Forgotten(id) {
			t.Fatalf("never-issued id %q reported Forgotten", id)
		}
	}
	if st := e.Stats(); st.Evicted != 3 {
		t.Fatalf("stats.Evicted = %d, want 3", st.Evicted)
	}
}

func TestRetainForGCDropsOldTerminalJobs(t *testing.T) {
	e := New(Config{Workers: 1, RetainFor: 20 * time.Millisecond, CacheEntries: -1, Run: instantRunner})
	defer shutdown(t, e)

	ctx := context.Background()
	j, err := e.Submit(ctx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := awaitJob(t, j); err != nil {
		t.Fatalf("wait: %v", err)
	}
	waitFor(t, "age GC to drop the job", func() bool { return len(e.Jobs()) == 0 })
	if !e.Forgotten(j.ID()) {
		t.Fatalf("aged-out job %s not Forgotten", j.ID())
	}
	if st := e.Stats(); st.Evicted == 0 {
		t.Fatalf("age GC did not count an eviction: %+v", st)
	}
}

// TestShutdownStopsGoroutines: every goroutine an engine starts (its
// workers, the retention GC loop and Shutdown's drain waiter) has exited
// once Shutdown returns, also when Shutdown's deadline expires and it
// cancels a job that is still running.
func TestShutdownStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	running := make(chan struct{})
	e := New(Config{Workers: 2, RetainFor: 5 * time.Millisecond, CacheEntries: -1,
		Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
			if req.Benchmark == "b9" {
				close(running)
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return fakeOutcome(req.Benchmark), nil
		}})
	ctx := context.Background()
	for _, name := range []string{"misex1", "duke2"} {
		if _, err := e.Run(ctx, Request{Benchmark: name}); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "b9"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !await(t, "the first job to run", running) {
		t.FailNow()
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		done <- e.Shutdown(sctx)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want the expired deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return: a goroutine it joins never saw the stop signal")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, %d before New:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestLoadShedReturnsErrQueueFull(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Workers: 1, QueueDepth: 1, LoadShed: true, CacheEntries: -1,
		Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return fakeOutcome(req.Benchmark), nil
		}})
	defer shutdown(t, e)
	defer close(gate)

	ctx := context.Background()
	j1, err := e.Submit(ctx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitFor(t, "worker busy", func() bool { return j1.Status().State == "running" })
	if _, err := e.Submit(ctx, Request{Benchmark: "b9"}); err != nil {
		t.Fatalf("submit 2 (fills queue): %v", err)
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "C432"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit 3 on full queue = %v, want ErrQueueFull", err)
	}
	st := e.Stats()
	if st.Shed != 1 {
		t.Fatalf("stats.Shed = %d, want 1", st.Shed)
	}
	if st.Jobs != 2 {
		t.Fatalf("shed job leaked into the registry: %d jobs, want 2", st.Jobs)
	}
	if st.QueueLen != 1 || st.QueueCap != 1 {
		t.Fatalf("queue len/cap = %d/%d, want 1/1", st.QueueLen, st.QueueCap)
	}
}

// TestSoakRegistryStaysBounded submits 10× MaxRetainedJobs jobs and
// asserts the registry never accumulates more than the bound — the
// memory-leak regression behind this whole layer.
func TestSoakRegistryStaysBounded(t *testing.T) {
	const max = 25
	const n = 10 * max
	e := New(Config{Workers: 4, MaxRetainedJobs: max, CacheEntries: -1, Run: instantRunner})
	defer shutdown(t, e)

	ctx := context.Background()
	names := []string{"misex1", "b9", "C432", "e64", "apex7", "duke2", "misex3"}
	var ids []string
	for i := 0; i < n; i++ {
		req := Request{Benchmark: names[i%len(names)]}
		req.Options.WireWeight = 0.25 + float64(i)/n // vary the cache key
		j, err := e.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := awaitJob(t, j); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		ids = append(ids, j.ID())
		if live := e.Stats().Jobs; live > max+4 { // + workers in flight
			t.Fatalf("registry grew to %d jobs mid-soak (bound %d)", live, max)
		}
	}

	jobs := e.Jobs()
	if len(jobs) > max {
		t.Fatalf("registry holds %d jobs after soak, want <= %d", len(jobs), max)
	}
	for _, st := range jobs {
		if st.State != "done" {
			t.Fatalf("retained job %s in state %s, want done", st.ID, st.State)
		}
	}
	st := e.Stats()
	if want := uint64(n - max); st.Evicted != want {
		t.Fatalf("stats.Evicted = %d, want %d", st.Evicted, want)
	}
	for _, id := range ids[:n-max] {
		if _, ok := e.Job(id); ok {
			t.Fatalf("evicted job %s still resolvable", id)
		}
		if !e.Forgotten(id) {
			t.Fatalf("evicted job %s not Forgotten", id)
		}
	}
}
