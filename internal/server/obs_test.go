package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lily/internal/engine"
	"lily/internal/obs"
)

// newTracedServer builds a server whose engine records phase traces.
func newTracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	return serve(t, engine.New(engine.Config{Workers: 2, Trace: true}))
}

// scrapeMetrics fetches /metrics and parses the exposition strictly:
// every sample line must be preceded by a TYPE line for its family, and
// values must parse as floats. Returns sample -> value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := make(map[string]float64)
	typed := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[name] = true
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		base := key
		if j := strings.IndexByte(base, '{'); j >= 0 {
			base = base[:j]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		if !typed[family] && !typed[base] {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// submitAndWait submits a benchmark job and long-polls it to a terminal
// state, returning the job ID.
func submitAndWait(t *testing.T, base string, req SubmitRequest) string {
	t.Helper()
	resp := postJSON(t, base+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	deadline := time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(base + sub.Status + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		st := decode[engine.Status](t, r)
		switch st.State {
		case "done":
			return sub.ID
		case "failed", "canceled":
			t.Fatalf("job %s terminated %s: %s", sub.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", sub.ID, st.State)
		}
	}
}

// TestMetricsEndpoint asserts the exposition parses, includes the
// acceptance-criteria families, and stays monotonically consistent while
// scraped concurrently with a stream of jobs.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTracedServer(t)

	// Scrapers race the job stream: every scrape must parse and every
	// counter/histogram-count must be monotone non-decreasing.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var lastSubmitted, lastCount float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := scrapeMetrics(t, ts.URL)
				if v := s["lily_jobs_submitted_total"]; v < lastSubmitted {
					t.Errorf("lily_jobs_submitted_total went backwards: %v < %v", v, lastSubmitted)
					return
				} else {
					lastSubmitted = v
				}
				cnt := s["lily_job_duration_seconds_count"]
				if cnt < lastCount {
					t.Errorf("job duration count went backwards: %v < %v", cnt, lastCount)
					return
				}
				lastCount = cnt
				if inf := s[`lily_job_duration_seconds_bucket{le="+Inf"}`]; inf != cnt {
					t.Errorf("job duration _count %v != +Inf bucket %v", cnt, inf)
					return
				}
			}
		}()
	}

	var jobWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		jobWG.Add(1)
		go func(i int) {
			defer jobWG.Done()
			submitAndWait(t, ts.URL, SubmitRequest{
				Benchmark: "misex1",
				Options:   JobOptions{Mapper: "lily", WireWeight: 0.5 + float64(i)*0.25},
			})
		}(i)
	}
	jobWG.Wait()
	close(stop)
	scrapeWG.Wait()

	s := scrapeMetrics(t, ts.URL)
	if got := s["lily_jobs_submitted_total"]; got < 4 {
		t.Errorf("lily_jobs_submitted_total = %v, want >= 4", got)
	}
	if got := s["lily_job_duration_seconds_count"]; got < 1 {
		t.Errorf("lily_job_duration_seconds_count = %v, want >= 1", got)
	}
	// Per-phase histogram: the default lily flow must have recorded at
	// least premap, placement, cover, layout, and timing durations.
	for _, phase := range []string{"premap", "placement", "cover", "layout", "timing"} {
		key := fmt.Sprintf("%s_count{phase=%q}", obs.MetricPhaseDuration, phase)
		if got := s[key]; got < 1 {
			t.Errorf("%s = %v, want >= 1", key, got)
		}
	}
	// Flow counters must have moved.
	for _, name := range []string{obs.MetricConesMapped, obs.MetricWireEvals, obs.MetricCGIterations} {
		if got := s[name]; got < 1 {
			t.Errorf("%s = %v, want >= 1", name, got)
		}
	}
	// HTTP-layer metrics cover the routes this test exercised.
	if got := s[`lily_http_requests_total{route="GET /metrics"}`]; got < 1 {
		t.Errorf("scrapes of /metrics not counted: %v", got)
	}
	if got := s[`lily_http_requests_total{route="POST /v1/jobs"}`]; got < 4 {
		t.Errorf("submits not counted: %v", got)
	}
	if got := s[`lily_http_responses_total{class="2xx"}`]; got < 5 {
		t.Errorf("2xx responses = %v, want >= 5", got)
	}
}

// collectSpanNames flattens a span forest into a name set.
func collectSpanNames(nodes []*obs.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		collectSpanNames(n.Children, into)
	}
}

// TestTraceEndpoint runs a full-featured flow and asserts the trace
// covers every pipeline phase the acceptance criteria name, with all
// spans ended and durations recorded.
func TestTraceEndpoint(t *testing.T) {
	ts := newTracedServer(t)
	id := submitAndWait(t, ts.URL, SubmitRequest{
		Benchmark: "misex1",
		Options: JobOptions{
			Mapper:         "lily",
			PreOptimize:    true,
			FanoutOptimize: true,
		},
	})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", resp.StatusCode)
	}
	tr := decode[TraceResponse](t, resp)
	if tr.ID != id || tr.State != "done" {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("empty span forest")
	}
	names := make(map[string]int)
	collectSpanNames(tr.Spans, names)
	for _, phase := range []string{"job", "preopt", "premap", "placement", "cover", "fanout", "layout", "timing"} {
		if names[phase] == 0 {
			t.Errorf("trace missing %q span (got %v)", phase, names)
		}
	}
	// A terminal job's trace must be fully ended.
	var assertEnded func(nodes []*obs.SpanNode)
	assertEnded = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			if n.DurationNS < 0 {
				t.Errorf("span %q still running in terminal trace", n.Name)
			}
			assertEnded(n.Children)
		}
	}
	assertEnded(tr.Spans)

	// Unknown and malformed IDs behave like the status endpoint.
	r404, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", r404.StatusCode)
	}
}

// TestTraceDisabled asserts that with tracing off the endpoint answers
// 404 for a real job rather than serving an empty tree.
func TestTraceDisabled(t *testing.T) {
	ts, _ := newTestServer(t) // Trace defaults to false
	id := submitAndWait(t, ts.URL, SubmitRequest{Benchmark: "misex1"})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled = %d, want 404", resp.StatusCode)
	}
}
