// Service smoke test: the batch API's end-to-end acceptance. One
// in-process lilyd equivalent (engine + HTTP server behind httptest)
// serves the full benchmark suite through POST /v1/batches, and every
// mapped-BLIF SHA-256 must match testdata/golden.json. The same batch
// again must be served entirely from the result cache with identical
// hashes, and the lut4 suite must match its own goldens.
//
// `make service-smoke` runs exactly this test under -race; CI runs it as
// its own job.
package lily_test

import (
	"bufio"
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
// wires them, minus load shedding: a whole suite batch must queue rather
// than be answered 429.
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

// suiteBatch builds the batch request covering every benchmark circuit in
// both objectives (honoring -short), with emit_blif so each stream line
// carries the golden hash.
func suiteBatch(t *testing.T) (server.BatchSubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var req server.BatchSubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		for _, obj := range []struct {
			name string
			obj  lily.Objective
		}{{"area", lily.ObjectiveArea}, {"delay", lily.ObjectiveDelay}} {
			req.Jobs = append(req.Jobs, server.SubmitRequest{
				Benchmark: circuit,
				EmitBLIF:  true,
				// Parallelism exercises the wave-parallel mapper through
				// the whole service path; the golden hashes below prove
				// it changes nothing in the bytes.
				Options: server.JobOptions{Mapper: "lily", Objective: obj.name, Parallelism: 2},
			})
			keys = append(keys, goldenKey(circuit, obj.obj))
		}
	}
	return req, keys
}

// lutSuiteBatch builds the suite batch at target=lut4 in area mode (the
// pinned LUT goldens), with emit_blif so each stream line carries the
// golden hash. The LUT backend rides the same service path as ASIC
// mapping: same digests, same result cache.
func lutSuiteBatch(t *testing.T) (server.BatchSubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var req server.BatchSubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		req.Jobs = append(req.Jobs, server.SubmitRequest{
			Benchmark: circuit,
			EmitBLIF:  true,
			Options: server.JobOptions{
				Mapper: "lily", Objective: "area", Target: "lut4", Parallelism: 2},
		})
		keys = append(keys, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT4))
	}
	return req, keys
}

// runSuiteBatch submits the suite and returns the stream lines keyed by
// job index, plus the submit ack.
func runSuiteBatch(t *testing.T, ts *httptest.Server, req server.BatchSubmitRequest) (server.BatchSubmitResponse, map[int]server.BatchResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status = %d, want 202", resp.StatusCode)
	}
	var ack server.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sr, err := http.Get(ts.URL + ack.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", sr.StatusCode)
	}
	results := make(map[int]server.BatchResult, len(req.Jobs))
	sc := bufio.NewScanner(sr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var line server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		results[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(req.Jobs) {
		t.Fatalf("streamed %d of %d results", len(results), len(req.Jobs))
	}
	return ack, results
}

// assertGoldenResults checks every stream line terminated successfully
// with the pinned mapped-BLIF hash for its (circuit, objective).
func assertGoldenResults(t *testing.T, label string, keys []string, results map[int]server.BatchResult, goldens map[string]goldenEntry) {
	t.Helper()
	for i, key := range keys {
		line, ok := results[i]
		if !ok {
			t.Errorf("[%s] %s: missing from stream", label, key)
			continue
		}
		if line.State != "done" {
			t.Errorf("[%s] %s: finished %s (%s), want done", label, key, line.State, line.Error)
			continue
		}
		want, ok := goldens[key]
		if !ok {
			t.Fatalf("no golden for %s", key)
		}
		if line.BLIFSHA256 != want.BLIFSHA256 {
			t.Errorf("[%s] %s: mapped BLIF hash drifted:\n got %s\nwant %s",
				label, key, line.BLIFSHA256, want.BLIFSHA256)
		}
		if line.Result == nil || line.Result.Gates != want.Gates {
			t.Errorf("[%s] %s: gates drifted: %+v, want %d", label, key, line.Result, want.Gates)
		}
	}
}

func TestServiceSmoke(t *testing.T) {
	goldens := loadGoldens(t)
	eng, ts := newSmokeService(t)
	req, keys := suiteBatch(t)

	// Round 1: first sight of every digest — computed by the engine.
	_, results := runSuiteBatch(t, ts, req)
	assertGoldenResults(t, "asic", keys, results, goldens)

	// Round 2: the same batch again must come entirely from the result
	// cache, with the same bytes.
	hitsBefore := eng.Stats().CacheHits
	_, again := runSuiteBatch(t, ts, req)
	assertGoldenResults(t, "asic/cached", keys, again, goldens)
	if hits := eng.Stats().CacheHits - hitsBefore; hits != uint64(len(req.Jobs)) {
		t.Errorf("repeat batch: %d cache hits, want %d (one per job)", hits, len(req.Jobs))
	}
	for i, key := range keys {
		if line := again[i]; !line.CacheHit || line.BLIFSHA256 != results[i].BLIFSHA256 {
			t.Errorf("%s: repeat cache_hit=%v hash=%s, want a cache hit with %s",
				key, line.CacheHit, line.BLIFSHA256, results[i].BLIFSHA256)
		}
	}

	// Round 3: the suite at target=lut4. Different target ⇒ different
	// digests ⇒ fresh compute, and every hash must match the pinned LUT
	// goldens.
	lutReq, lutKeys := lutSuiteBatch(t)
	_, lutResults := runSuiteBatch(t, ts, lutReq)
	assertGoldenResults(t, "lut4", lutKeys, lutResults, goldens)
}
