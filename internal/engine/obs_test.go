package engine

import (
	"context"
	"strings"
	"testing"

	"lily/internal/obs"
)

// spanNames flattens a span forest into a name -> count map.
func spanNames(nodes []*obs.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Children, into)
	}
}

// TestJobTraceLifecycle asserts a traced engine records a per-job span
// tree rooted at "job", that a cache-hit repeat gets its own trivial
// trace, and that the trace dies with the job when it is evicted.
func TestJobTraceLifecycle(t *testing.T) {
	e := New(Config{Workers: 2, Trace: true, CacheEntries: 8, MaxRetainedJobs: 1})
	defer shutdown(t, e)

	j, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := awaitJob(t, j); err != nil {
		t.Fatal(err)
	}
	if !j.Traced() {
		t.Fatal("traced engine produced an untraced job")
	}
	names := make(map[string]int)
	spanNames(j.Trace(), names)
	if names["job"] != 1 {
		t.Fatalf("job root spans = %d, want 1 (%v)", names["job"], names)
	}
	for _, phase := range []string{"premap", "placement", "cover", "layout", "timing"} {
		if names[phase] == 0 {
			t.Errorf("job trace missing %q span (got %v)", phase, names)
		}
	}

	// A repeat submission is served from the cache; its trace is the
	// one-span trivial form marking the source.
	j2, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := awaitJob(t, j2); err != nil {
		t.Fatal(err)
	}
	if !j2.Status().CacheHit {
		t.Fatalf("second submission missed the cache: %+v", j2.Status())
	}
	tree := j2.Trace()
	if len(tree) != 1 || tree[0].Name != "job" || tree[0].Attrs["source"] != "cache_hit" {
		t.Fatalf("cache-hit trace = %+v, want one job span with source=cache_hit", tree)
	}

	// The repeat's finish evicted the first job past the one-job
	// retention bound, and its trace went with it: the handle is gone
	// from the registry, so nothing serves it anymore.
	if _, ok := e.Job(j.ID()); ok {
		t.Fatal("evicted job still resolvable")
	}
	if !e.Forgotten(j.ID()) {
		t.Fatal("evicted job not reported Forgotten")
	}
}

// TestTraceDisabledByDefault asserts engines without Config.Trace record
// nothing per job.
func TestTraceDisabledByDefault(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	j, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := awaitJob(t, j); err != nil {
		t.Fatal(err)
	}
	if j.Traced() || j.Trace() != nil {
		t.Fatal("untraced engine recorded a trace")
	}
}

// TestEngineMetricsSharedRegistry asserts an engine mirrors its Stats
// counters into a caller-provided registry.
func TestEngineMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, Metrics: reg, CacheEntries: 8})
	defer shutdown(t, e)

	for i := 0; i < 2; i++ {
		j, err := e.Submit(context.Background(), Request{Benchmark: "misex1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := awaitJob(t, j); err != nil {
			t.Fatal(err)
		}
	}
	if e.Registry() != reg {
		t.Fatal("engine did not adopt the provided registry")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"lily_jobs_submitted_total 2",
		`lily_jobs_total{state="done"} 2`,
		"lily_cache_hits_total 1",
		"lily_cache_misses_total 1",
		"# TYPE lily_job_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
