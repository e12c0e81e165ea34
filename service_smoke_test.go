// Service smoke test: the job API's end-to-end acceptance. One
// in-process lilyd equivalent (engine + HTTP server behind httptest)
// serves the full benchmark suite as individual POST /v1/jobs
// submissions, long-polled with GET /v1/jobs/{id}?wait=, and every
// job status's blif_sha256 must match testdata/golden.json. The same
// suite again must be served entirely from the result cache with
// identical hashes, and the lut4 suite must match its own goldens.
//
// `make service-smoke` runs exactly this test under -race; CI runs it as
// its own job.
package lily_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"lily"
	"lily/internal/engine"
	"lily/internal/server"
)

// newSmokeService starts an engine and its HTTP server the way cmd/lilyd
// wires them, minus load shedding: a submission that meets a full queue
// waits for room rather than being answered 429.
func newSmokeService(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(server.New(eng))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	})
	return eng, ts
}

// suiteJobs builds the job requests covering every benchmark circuit in
// both objectives (honoring -short), with emit_blif so each finished
// status carries the golden hash.
func suiteJobs(t *testing.T) ([]server.SubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var reqs []server.SubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		for _, obj := range []struct {
			name string
			obj  lily.Objective
		}{{"area", lily.ObjectiveArea}, {"delay", lily.ObjectiveDelay}} {
			reqs = append(reqs, server.SubmitRequest{
				Benchmark: circuit,
				EmitBLIF:  true,
				Options:   server.JobOptions{Mapper: "lily", Objective: obj.name},
			})
			keys = append(keys, goldenKey(circuit, obj.obj))
		}
	}
	return reqs, keys
}

// lutSuiteJobs builds the suite at target=lut4 in area mode (the pinned
// LUT goldens), with emit_blif so each finished status carries the
// golden hash. The LUT backend rides the same service path as ASIC
// mapping: same digests, same result cache.
func lutSuiteJobs(t *testing.T) ([]server.SubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var reqs []server.SubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		reqs = append(reqs, server.SubmitRequest{
			Benchmark: circuit,
			EmitBLIF:  true,
			Options:   server.JobOptions{Mapper: "lily", Objective: "area", Target: "lut4"},
		})
		keys = append(keys, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT4))
	}
	return reqs, keys
}

// smokeResult is one finished suite job: its final status and, when it
// succeeded, the gate count of its FlowResult.
type smokeResult struct {
	status engine.Status
	gates  int
}

// runSuite submits reqs as individual jobs and returns their results in
// request order. At most the engine's queue capacity of jobs is
// outstanding at once: before submitting job i it waits for job
// i-window, so no submission meets a full queue.
func runSuite(t *testing.T, eng *engine.Engine, ts *httptest.Server, reqs []server.SubmitRequest) []smokeResult {
	t.Helper()
	window := eng.Stats().QueueCap
	subs := make([]server.SubmitResponse, len(reqs))
	results := make([]smokeResult, len(reqs))
	for i, req := range reqs {
		if i >= window {
			results[i-window] = finishSmokeJob(t, ts, subs[i-window])
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status = %d, want 202", req.Benchmark, resp.StatusCode)
		}
		subs[i] = decodeJSON[server.SubmitResponse](t, resp)
	}
	for i := max(0, len(reqs)-window); i < len(reqs); i++ {
		results[i] = finishSmokeJob(t, ts, subs[i])
	}
	return results
}

// finishSmokeJob long-polls a job to a terminal state and, if it is
// done, fetches its FlowResult's gate count.
func finishSmokeJob(t *testing.T, ts *httptest.Server, sub server.SubmitResponse) smokeResult {
	t.Helper()
	var st engine.Status
	for {
		r, err := http.Get(ts.URL + sub.Status + "?wait=60s")
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			t.Fatalf("poll %s: status = %d, want 200", sub.ID, r.StatusCode)
		}
		st = decodeJSON[engine.Status](t, r)
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			break
		}
	}
	res := smokeResult{status: st}
	if st.State == "done" {
		r, err := http.Get(ts.URL + sub.Result)
		if err != nil {
			t.Fatal(err)
		}
		res.gates = decodeJSON[lily.FlowResult](t, r).Gates
	}
	return res
}

// decodeJSON decodes a response body into a T and closes it.
func decodeJSON[T any](t *testing.T, r *http.Response) T {
	t.Helper()
	defer r.Body.Close()
	var v T
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// assertGoldenResults checks every job terminated successfully with the
// pinned mapped-BLIF hash and gate count for its golden key.
func assertGoldenResults(t *testing.T, label string, keys []string, results []smokeResult, goldens map[string]goldenEntry) {
	t.Helper()
	for i, key := range keys {
		st := results[i].status
		if st.State != "done" {
			t.Errorf("[%s] %s: finished %s (%s), want done", label, key, st.State, st.Error)
			continue
		}
		want, ok := goldens[key]
		if !ok {
			t.Fatalf("no golden for %s", key)
		}
		if st.BLIFSHA256 != want.BLIFSHA256 {
			t.Errorf("[%s] %s: mapped BLIF hash drifted:\n got %s\nwant %s",
				label, key, st.BLIFSHA256, want.BLIFSHA256)
		}
		if results[i].gates != want.Gates {
			t.Errorf("[%s] %s: gates = %d, want %d", label, key, results[i].gates, want.Gates)
		}
	}
}

func TestServiceSmoke(t *testing.T) {
	goldens := loadGoldens(t)
	eng, ts := newSmokeService(t)
	reqs, keys := suiteJobs(t)

	// Round 1: first sight of every digest — computed by the engine.
	results := runSuite(t, eng, ts, reqs)
	assertGoldenResults(t, "asic", keys, results, goldens)

	// Round 2: the same suite again must come entirely from the result
	// cache, with the same bytes.
	hitsBefore := eng.Stats().CacheHits
	again := runSuite(t, eng, ts, reqs)
	assertGoldenResults(t, "asic/cached", keys, again, goldens)
	if hits := eng.Stats().CacheHits - hitsBefore; hits != uint64(len(reqs)) {
		t.Errorf("repeat suite: %d cache hits, want %d (one per job)", hits, len(reqs))
	}
	for i, key := range keys {
		if st := again[i].status; !st.CacheHit || st.BLIFSHA256 != results[i].status.BLIFSHA256 {
			t.Errorf("%s: repeat cache_hit=%v hash=%s, want a cache hit with %s",
				key, st.CacheHit, st.BLIFSHA256, results[i].status.BLIFSHA256)
		}
	}

	// Round 3: the suite at target=lut4. Different target ⇒ different
	// digests ⇒ fresh compute, and every hash must match the pinned LUT
	// goldens.
	lutReqs, lutKeys := lutSuiteJobs(t)
	assertGoldenResults(t, "lut4", lutKeys, runSuite(t, eng, ts, lutReqs), goldens)
}
