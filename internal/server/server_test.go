package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lily"
	"lily/internal/engine"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	return serve(t, eng), eng
}

// newInstantJobServer backs the job routes with an instant fake runner,
// for tests that exercise the HTTP surface rather than the mapping
// pipeline. With emit_blif the runner's mapped netlist is
// "mapped:<benchmark>".
func newInstantJobServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	return newFakeServer(t, engine.Config{Workers: 2, Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
		out := &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}
		if req.EmitBLIF {
			out.MappedBLIF = []byte("mapped:" + req.Benchmark)
		}
		return out, nil
	}})
}

// serve starts eng's HTTP API on a test server and registers its
// teardown: close the server, shut the engine down, and fail the test if
// any handler wrote a second status on one response. net/http answers
// with the first status and only logs the second, so the server's error
// log is the one place the mistake shows.
func serve(t *testing.T, eng *engine.Engine, opts ...Option) *httptest.Server {
	t.Helper()
	ts, errLog := startLogged(New(eng, opts...))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
		if s := errLog.String(); strings.Contains(s, superfluousWrite) {
			t.Errorf("a handler wrote two statuses on one response:\n%s", s)
		}
	})
	return ts
}

// superfluousWrite is what net/http logs for a WriteHeader call after the
// status was already written.
const superfluousWrite = "superfluous response.WriteHeader"

// syncLog is a server error log that handlers may write concurrently.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startLogged starts h on a test server whose error log is captured.
func startLogged(h http.Handler) (*httptest.Server, *syncLog) {
	errLog := &syncLog{}
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ErrorLog = log.New(errLog, "", 0)
	ts.Start()
	return ts, errLog
}

// TestSecondStatusIsLogged pins the net/http behaviour serve relies on: a
// handler that writes two statuses sends the first and logs the second
// with superfluousWrite.
func TestSecondStatusIsLogged(t *testing.T) {
	ts, errLog := startLogged(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		writeError(w, http.StatusConflict, errors.New("too late"))
	}))
	r, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	ts.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want the first one written (200)", r.StatusCode)
	}
	if s := errLog.String(); !strings.Contains(s, superfluousWrite) {
		t.Errorf("error log = %q, want a line containing %q", s, superfluousWrite)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v
}

// TestSubmitPollResultSVG is the end-to-end session the README documents:
// submit a benchmark job, poll it to completion, fetch the FlowResult, and
// download the layout SVG.
func TestSubmitPollResultSVG(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{
		Benchmark: "misex1",
		SVG:       true,
		Options:   JobOptions{Mapper: "lily", Objective: "area"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	if sub.ID == "" || sub.Status == "" || sub.SVG == "" {
		t.Fatalf("incomplete submit response: %+v", sub)
	}

	// Poll (with long-poll waits) until the job terminates.
	var status engine.Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + sub.Status + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d, want 200", r.StatusCode)
		}
		status = decode[engine.Status](t, r)
		if status.State == "done" || status.State == "failed" || status.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", status.State)
		}
	}
	if status.State != "done" {
		t.Fatalf("job finished %s (%s), want done", status.State, status.Error)
	}
	if status.RunTime <= 0 {
		t.Fatalf("finished job reports no run time: %+v", status)
	}

	r, err := http.Get(ts.URL + sub.Result)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", r.StatusCode)
	}
	res := decode[lily.FlowResult](t, r)
	if res.Circuit != "misex1" || res.Gates == 0 || res.ChipAreaMM2 <= 0 {
		t.Fatalf("implausible FlowResult: %+v", res)
	}

	r, err = http.Get(ts.URL + sub.SVG)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("svg status = %d, want 200", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg content-type = %q", ct)
	}
	var svg bytes.Buffer
	if _, err := svg.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatalf("svg body missing <svg element (%d bytes)", svg.Len())
	}
}

func TestSubmitUploadedBLIF(t *testing.T) {
	ts, _ := newTestServer(t)

	// Round-trip a benchmark through its BLIF serialization so the upload
	// path exercises a realistic netlist.
	c, err := lily.GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	var blif strings.Builder
	if err := c.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{
		BLIF:    blif.String(),
		Options: JobOptions{Mapper: "mis"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)

	r, err := http.Get(ts.URL + sub.Status + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[engine.Status](t, r)
	if status.State != "done" {
		t.Fatalf("uploaded-BLIF job state = %s (%s), want done", status.State, status.Error)
	}
	r, err = http.Get(ts.URL + sub.Result)
	if err != nil {
		t.Fatal(err)
	}
	res := decode[lily.FlowResult](t, r)
	if res.Gates == 0 {
		t.Fatalf("empty mapping from uploaded BLIF: %+v", res)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"no source", `{"options":{}}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"nope"}`, http.StatusBadRequest},
		{"bad mapper", `{"benchmark":"misex1","options":{"mapper":"abc"}}`, http.StatusBadRequest},
		{"bad objective", `{"benchmark":"misex1","options":{"objective":"speed"}}`, http.StatusBadRequest},
		{"unknown field", `{"benchmark":"misex1","bogus":1}`, http.StatusBadRequest},
		{"garbage", `{{{`, http.StatusBadRequest},
		{"trailing garbage", `{"benchmark":"misex1"} trailing-garbage`, http.StatusBadRequest},
		{"second value", `{"benchmark":"misex1"}{"benchmark":"nope","bogus":1}`, http.StatusBadRequest},
		{"removed parallelism key", `{"benchmark":"misex1","options":{"parallelism":2}}`, http.StatusBadRequest},
		{"removed multilevel threshold key", `{"benchmark":"misex1","options":{"multilevel_threshold":5000}}`, http.StatusBadRequest},
		{"svg with emit_blif", `{"benchmark":"misex1","svg":true,"emit_blif":true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	r, err := http.Get(ts.URL + "/v1/jobs/job-424242")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/jobs/job-424242/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result status = %d, want 404", r.StatusCode)
	}
}

func TestResultBeforeCompletionConflicts(t *testing.T) {
	eng := engine.New(engine.Config{
		Workers: 1,
		Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	ts := serve(t, eng)

	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: "misex1"})
	sub := decode[SubmitResponse](t, resp)
	j, ok := eng.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s not registered", sub.ID)
	}
	defer j.Cancel() // the runner waits for it, and Shutdown for the runner
	r, err := http.Get(ts.URL + sub.Result)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("early result fetch status = %d, want 409", r.StatusCode)
	}
}

// TestSVGWithoutSVGConflicts: a finished job submitted without
// "svg": true answers 409 on its SVG route, with the error as its body.
func TestSVGWithoutSVGConflicts(t *testing.T) {
	ts, _ := newInstantJobServer(t)
	sub := submitAndFinish(t, ts, "misex1")
	r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusConflict {
		t.Errorf("svg of a job without svg: status = %d, want 409", r.StatusCode)
	}
	if msg := decode[errorResponse](t, r).Error; !strings.Contains(msg, `"svg": true`) {
		t.Errorf("error = %q, want it to name the missing \"svg\": true", msg)
	}
}

// TestStatusBLIFHash: a finished emit_blif job's status carries the
// SHA-256 of its mapped netlist, a cache hit reports the hash of its
// miss, and a job without emit_blif has no blif_sha256 field at all.
func TestStatusBLIFHash(t *testing.T) {
	ts, eng := newInstantJobServer(t)
	sum := sha256.Sum256([]byte("mapped:misex1"))
	want := hex.EncodeToString(sum[:])

	finish := func(req SubmitRequest) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		sub := decode[SubmitResponse](t, resp)
		r, err := http.Get(ts.URL + sub.Status + "?wait=10s")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	status := func(body []byte) engine.Status {
		t.Helper()
		var st engine.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
		}
		return st
	}

	emit := SubmitRequest{Benchmark: "misex1", EmitBLIF: true}
	miss := status(finish(emit))
	if miss.CacheHit || miss.BLIFSHA256 != want {
		t.Fatalf("miss: cache_hit=%v blif_sha256=%q, want a miss with %s", miss.CacheHit, miss.BLIFSHA256, want)
	}
	hit := status(finish(emit))
	if !hit.CacheHit || hit.BLIFSHA256 != want {
		t.Fatalf("repeat: cache_hit=%v blif_sha256=%q, want a cache hit with %s", hit.CacheHit, hit.BLIFSHA256, want)
	}
	if st := eng.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	plain := finish(SubmitRequest{Benchmark: "misex1"})
	status(plain)
	if bytes.Contains(plain, []byte(`"blif_sha256"`)) {
		t.Fatalf("job without emit_blif reports a hash:\n%s", plain)
	}
}

func TestStatsBenchmarksHealth(t *testing.T) {
	ts, _ := newTestServer(t)

	r, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	names := decode[[]string](t, r)
	if len(names) != len(lily.BenchmarkNames()) {
		t.Fatalf("benchmarks = %d entries, want %d", len(names), len(lily.BenchmarkNames()))
	}

	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[engine.Stats](t, r)
	if stats.Workers != 2 {
		t.Fatalf("stats.Workers = %d, want 2", stats.Workers)
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[map[string]string](t, r)
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}

	r, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[[]engine.Status](t, r); len(got) != 0 {
		t.Fatalf("fresh server lists %d jobs, want 0", len(got))
	}
}

// TestWireOnlyBLIFJobFails: a job on a circuit with no logic to map ends
// failed with the flow's own error.
func TestWireOnlyBLIFJobFails(t *testing.T) {
	ts, _ := newTestServer(t)
	const blif = ".model wire\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
	c, err := lily.LoadBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	_, want := lily.RunFlow(c, lily.FlowOptions{})
	if want == nil {
		t.Fatal("RunFlow mapped a circuit with no logic")
	}

	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{BLIF: blif})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	r, err := http.Get(ts.URL + sub.Status + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[engine.Status](t, r)
	if status.State != "failed" || status.Error != want.Error() {
		t.Fatalf("job state %s, error %q; want failed with %q", status.State, status.Error, want)
	}
}
