package server

// HTTP-level lifecycle tests: load-shed 429 with Retry-After on the
// submit route, 410 Gone for evicted IDs, long-poll clamping, and
// timeout_ms validation.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lily"
	"lily/internal/engine"
)

// newFakeServer wires a test server over an engine with an injected
// runner so lifecycle paths don't pay for real mapping runs.
func newFakeServer(t *testing.T, cfg engine.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(cfg)
	return serve(t, eng), eng
}

func doRequest(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submitAndFinish posts a job and long-polls it to "done".
func submitAndFinish(t *testing.T, ts *httptest.Server, benchmark string) SubmitResponse {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: benchmark})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s status = %d, want 202", benchmark, resp.StatusCode)
	}
	sub := decode[SubmitResponse](t, resp)
	r, err := http.Get(ts.URL + sub.Status + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[engine.Status](t, r)
	if st.State != "done" {
		t.Fatalf("job %s state = %s (%s), want done", sub.ID, st.State, st.Error)
	}
	return sub
}

func TestNegativeTimeoutMSRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"misex1","timeout_ms":-100}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms status = %d, want 400", resp.StatusCode)
	}
}

func TestWaitParamValidationAndClamp(t *testing.T) {
	ts, _ := newFakeServer(t, engine.Config{
		Workers: 1,
		Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
			return &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}, nil
		},
	})
	sub := submitAndFinish(t, ts, "misex1")

	for _, bad := range []string{"banana", "-5s", "5"} {
		r, err := http.Get(ts.URL + sub.Status + "?wait=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("wait=%q status = %d, want 400", bad, r.StatusCode)
		}
	}

	// An absurd wait is clamped, not honoured: the job is terminal, so
	// the (clamped) long-poll returns immediately rather than parking
	// the connection for 10000 hours.
	start := time.Now()
	r, err := http.Get(ts.URL + sub.Status + "?wait=10000h")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("clamped wait status = %d, want 200", r.StatusCode)
	}
	st := decode[engine.Status](t, r)
	if st.State != "done" {
		t.Fatalf("state = %s, want done", st.State)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped wait blocked for %v", elapsed)
	}
}

func TestQueueFullAnswers429(t *testing.T) {
	gate := make(chan struct{})
	ts, eng := newFakeServer(t, engine.Config{
		Workers: 1, QueueDepth: 1, LoadShed: true, CacheEntries: -1,
		Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}, nil
		},
	})
	defer close(gate)

	resp := postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: "misex1"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 status = %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up the first job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: "b9"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 status = %d, want 202", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", SubmitRequest{Benchmark: "C432"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /v1/jobs on full queue status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 response missing Retry-After header")
	}
	if shed := eng.Stats().Shed; shed != 1 {
		t.Fatalf("stats.Shed = %d, want 1", shed)
	}
}

// TestDeleteAndEvictionAnswerGone: jobs leave the registry only by
// eviction, so DELETE on a job answers 405 Method Not Allowed; evicted
// IDs answer 410 Gone and never-issued IDs 404.
func TestDeleteAndEvictionAnswerGone(t *testing.T) {
	ts, _ := newFakeServer(t, engine.Config{
		Workers: 1, MaxRetainedJobs: 2, CacheEntries: -1,
		Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
			return &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}, nil
		},
	})

	var subs []SubmitResponse
	for _, n := range []string{"misex1", "b9", "C432", "e64", "apex7"} {
		subs = append(subs, submitAndFinish(t, ts, n))
	}

	// The first three were evicted oldest-first; their IDs answer 410 on
	// every job endpoint, not 404 (they did exist).
	for _, sub := range subs[:3] {
		for _, url := range []string{sub.Status, sub.Result} {
			r, err := http.Get(ts.URL + url)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusGone {
				t.Errorf("GET %s status = %d, want 410", url, r.StatusCode)
			}
		}
	}

	// There is no delete route: a retained job stays retained.
	for _, url := range []string{subs[0].Status, subs[3].Status, "/v1/jobs/job-999999"} {
		r := doRequest(t, http.MethodDelete, ts.URL+url)
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s status = %d, want 405", url, r.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + subs[3].Status)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET after DELETE status = %d, want 200", r.StatusCode)
	}

	// Never-issued IDs stay 404.
	for _, id := range []string{"job-999999", "bogus"} {
		r = doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+id)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown %s status = %d, want 404", id, r.StatusCode)
		}
	}
}

// TestSoakEvictedIDsOverHTTP drives 10× MaxRetainedJobs submissions
// through the HTTP API and verifies the registry bound plus 410s for
// every evicted ID — the end-to-end memory-leak regression.
func TestSoakEvictedIDsOverHTTP(t *testing.T) {
	const max = 10
	const n = 10 * max
	ts, eng := newFakeServer(t, engine.Config{
		Workers: 2, MaxRetainedJobs: max, CacheEntries: -1,
		Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
			return &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}, nil
		},
	})

	var subs []SubmitResponse
	for i := 0; i < n; i++ {
		sub := submitAndFinish(t, ts, "misex1")
		subs = append(subs, sub)
	}
	if jobs := len(eng.Jobs()); jobs > max {
		t.Fatalf("registry holds %d jobs after HTTP soak, want <= %d", jobs, max)
	}
	for i, sub := range subs[:n-max] {
		r, err := http.Get(ts.URL + sub.Status)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusGone {
			t.Fatalf("evicted job %d (%s) status = %d, want 410", i, sub.ID, r.StatusCode)
		}
	}
	// And the listing only ever exposes the retained tail.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	listed := decode[[]engine.Status](t, r)
	if len(listed) > max {
		t.Fatalf("GET /v1/jobs lists %d jobs, want <= %d", len(listed), max)
	}
	for _, st := range listed {
		if st.State != "done" {
			t.Fatalf("listed job %s in state %s, want done", st.ID, st.State)
		}
	}
}
