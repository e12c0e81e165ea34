package engine

// Job-lifecycle tests: bounded terminal-job retention (eviction order,
// age GC, explicit Remove, soak), goroutines stopped by Shutdown,
// load-shed admission control, and the singleflight
// leader-only-cancellation semantics.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
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
		if _, err := j.Wait(ctx); err != nil {
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

func TestRemoveTerminalJob(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Workers: 1, CacheEntries: -1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		if req.Benchmark == "b9" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	j1, err := e.Submit(ctx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := e.Remove(j1.ID()); err != nil {
		t.Fatalf("Remove(terminal) = %v", err)
	}
	if _, ok := e.Job(j1.ID()); ok {
		t.Fatalf("removed job still resolvable")
	}
	if !e.Forgotten(j1.ID()) {
		t.Fatalf("removed job not Forgotten")
	}
	if err := e.Remove(j1.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("second Remove = %v, want ErrUnknownJob", err)
	}

	j2, err := e.Submit(ctx, Request{Benchmark: "b9"})
	if err != nil {
		t.Fatalf("submit blocked job: %v", err)
	}
	waitFor(t, "job running", func() bool { return j2.Status().State == "running" })
	if err := e.Remove(j2.ID()); !errors.Is(err, ErrJobActive) {
		t.Fatalf("Remove(running) = %v, want ErrJobActive", err)
	}
	close(gate)
	if _, err := j2.Wait(ctx); err != nil {
		t.Fatalf("wait after gate: %v", err)
	}
	if err := e.Remove(j2.ID()); err != nil {
		t.Fatalf("Remove after finish = %v", err)
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
	if _, err := j.Wait(ctx); err != nil {
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
	<-running

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

// TestFollowerRerunsAfterLeaderTimeout is the singleflight-correctness
// regression: a deduped follower whose own context is live must not
// inherit the leader's deadline-exceeded verdict — it re-executes and
// produces a real Outcome.
func TestFollowerRerunsAfterLeaderTimeout(t *testing.T) {
	var calls atomic.Int64
	e := New(Config{Workers: 2, CacheEntries: -1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // leader: hang until its per-job timeout fires
			return nil, ctx.Err()
		}
		return fakeOutcome(req.Benchmark), nil
	}})
	defer shutdown(t, e)

	ctx := context.Background()
	// The timeout must outlast follower submission + dedup registration
	// (waited on below) but stay short enough to keep the test quick.
	leader, err := e.Submit(ctx, Request{Benchmark: "misex1", Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	waitFor(t, "leader running", func() bool { return leader.Status().State == "running" })
	follower, err := e.Submit(ctx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit follower: %v", err)
	}
	// The follower must be dedup-waiting on the leader before the
	// leader's timeout fires, or there is nothing to regress.
	waitFor(t, "follower deduped", func() bool { return e.Stats().Deduped == 1 })

	if _, err := leader.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want DeadlineExceeded", err)
	}
	out, err := follower.Wait(ctx)
	if err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if out == nil || out.Result == nil || out.Result.Circuit != "misex1" {
		t.Fatalf("follower got no real outcome: %+v", out)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner invoked %d times, want 2 (leader + re-run)", got)
	}
	st := e.Stats()
	if st.DedupReruns != 1 {
		t.Fatalf("stats.DedupReruns = %d, want 1", st.DedupReruns)
	}
	if st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("stats canceled/completed = %d/%d, want 1/1", st.Canceled, st.Completed)
	}
}

// TestFollowerStaysCanceledWithDeadContext pins the other half of the
// semantics: when the follower's own context is also cancelled, it must
// finish canceled without looping into a re-run.
func TestFollowerStaysCanceledWithDeadContext(t *testing.T) {
	var calls atomic.Int64
	e := New(Config{Workers: 2, CacheEntries: -1, Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
		calls.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer shutdown(t, e)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	defer cancelFollower()

	leader, err := e.Submit(leaderCtx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit leader: %v", err)
	}
	waitFor(t, "leader running", func() bool { return leader.Status().State == "running" })
	follower, err := e.Submit(followerCtx, Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatalf("submit follower: %v", err)
	}
	waitFor(t, "follower deduped", func() bool { return e.Stats().Deduped == 1 })

	cancelFollower()
	cancelLeader()
	if _, err := follower.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower error = %v, want context.Canceled", err)
	}
	if _, err := leader.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("runner invoked %d times, want 1 (no re-run for a dead follower)", got)
	}
	if st := e.Stats(); st.DedupReruns != 0 {
		t.Fatalf("stats.DedupReruns = %d, want 0", st.DedupReruns)
	}
}

// TestDedupCacheAccountingAgrees: however a job ends up served — first
// cache lookup, a dedup follower's cache re-check after its leader timed
// out, piggybacking on a rerun leader, or rerunning itself — the cache
// counters in Stats and in the metrics registry must agree, and every
// finished job must have a trace explaining where its result came from.
// Which path each follower takes after the leader's timeout depends on
// scheduling, so the scenario runs several rounds on distinct keys.
func TestDedupCacheAccountingAgrees(t *testing.T) {
	const rounds, followers = 5, 4
	e := New(Config{Workers: followers + 1, CacheEntries: 16, Trace: true,
		Run: func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
			if _, leader := ctx.Deadline(); leader {
				<-ctx.Done() // leader: hang until its per-job timeout fires
				return nil, ctx.Err()
			}
			return fakeOutcome(req.Benchmark), nil
		}})
	defer shutdown(t, e)

	ctx := context.Background()
	var jobs []*Job
	recheckHits := 0
	for r := 0; r < rounds; r++ {
		// WireWeight is part of the digest, so each round has its own key.
		opt := lily.FlowOptions{WireWeight: float64(r + 2)}
		leader, err := e.Submit(ctx, Request{Benchmark: "misex1", Options: opt, Timeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatalf("round %d: submit leader: %v", r, err)
		}
		waitFor(t, "leader running", func() bool { return leader.Status().State == "running" })
		round := []*Job{leader}
		for i := 0; i < followers; i++ {
			j, err := e.Submit(ctx, Request{Benchmark: "misex1", Options: opt})
			if err != nil {
				t.Fatalf("round %d: submit follower: %v", r, err)
			}
			round = append(round, j)
		}
		want := uint64((r + 1) * followers)
		waitFor(t, "followers deduped", func() bool { return e.Stats().Deduped == want })
		if _, err := leader.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: leader error = %v, want DeadlineExceeded", r, err)
		}
		for _, j := range round[1:] {
			if _, err := j.Wait(ctx); err != nil {
				t.Fatalf("round %d: follower %s: %v", r, j.ID(), err)
			}
			if st := j.Status(); st.CacheHit && st.Deduped {
				recheckHits++
			}
		}
		jobs = append(jobs, round...)
	}
	t.Logf("%d of %d followers served by the cache re-check", recheckHits, rounds*followers)

	st := e.Stats()
	if got := e.metrics.cacheHits.Value(); got != st.CacheHits {
		t.Errorf("lily_cache_hits_total = %d, Stats().CacheHits = %d", got, st.CacheHits)
	}
	if got := e.metrics.cacheMisses.Value(); got != st.CacheMisses {
		t.Errorf("lily_cache_misses_total = %d, Stats().CacheMisses = %d", got, st.CacheMisses)
	}
	for _, j := range jobs {
		if st := j.Status(); st.State == "done" && len(j.Trace()) == 0 {
			t.Errorf("done job %s (cache_hit=%v deduped=%v) has no trace", j.ID(), st.CacheHit, st.Deduped)
		}
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
		if _, err := j.Wait(ctx); err != nil {
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
