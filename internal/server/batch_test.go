package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lily"
	"lily/internal/engine"
)

// newBatchFakeServer backs the HTTP surface with an instant fake runner,
// for tests that exercise batch mechanics rather than the mapping
// pipeline.
func newBatchFakeServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	return newFakeServer(t, engine.Config{Workers: 2, Run: func(ctx context.Context, c *lily.Circuit, req engine.Request) (*engine.Outcome, error) {
		out := &engine.Outcome{Result: &lily.FlowResult{Circuit: req.Benchmark, Gates: 1}}
		if req.EmitBLIF {
			out.MappedBLIF = []byte("mapped:" + req.Benchmark)
		}
		return out, nil
	}})
}

// readStream drains a batch's NDJSON stream into results keyed by index.
func readStream(t *testing.T, url string) map[int]BatchResult {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	out := make(map[int]BatchResult)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var line BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := out[line.Index]; dup {
			t.Fatalf("index %d streamed twice", line.Index)
		}
		out[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchLifecycle drives the real pipeline through the batch API:
// submit a two-job suite with emit_blif, stream the results, and check
// each line carries the digest, terminal state, and mapped-netlist hash.
func TestBatchLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/batches", BatchSubmitRequest{Jobs: []SubmitRequest{
		{Benchmark: "misex1", EmitBLIF: true, Options: JobOptions{Mapper: "mis", Objective: "area"}},
		{Benchmark: "misex1", EmitBLIF: true, Options: JobOptions{Mapper: "lily", Objective: "area"}},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status = %d, want 202", resp.StatusCode)
	}
	ack := decode[BatchSubmitResponse](t, resp)
	if ack.ID == "" || ack.Jobs != 2 || len(ack.Refs) != 2 {
		t.Fatalf("incomplete ack: %+v", ack)
	}
	for i, ref := range ack.Refs {
		if ref.Index != i || ref.JobID == "" || len(ref.Digest) != 64 {
			t.Fatalf("bad ref %d: %+v", i, ref)
		}
	}
	if ack.Refs[0].Digest == ack.Refs[1].Digest {
		t.Fatalf("mis and lily jobs share a digest: %s", ack.Refs[0].Digest)
	}

	results := readStream(t, ts.URL+ack.Stream)
	if len(results) != 2 {
		t.Fatalf("streamed %d results, want 2", len(results))
	}
	for i := 0; i < 2; i++ {
		line, ok := results[i]
		if !ok {
			t.Fatalf("index %d missing from stream", i)
		}
		if line.State != "done" {
			t.Fatalf("job %d finished %s (%s), want done", i, line.State, line.Error)
		}
		if line.Digest != ack.Refs[i].Digest {
			t.Fatalf("job %d digest drifted: ack %s, stream %s", i, ack.Refs[i].Digest, line.Digest)
		}
		if len(line.BLIFSHA256) != 64 {
			t.Fatalf("job %d blif_sha256 = %q, want 64 hex chars", i, line.BLIFSHA256)
		}
		if line.Result == nil || line.Result.Gates == 0 {
			t.Fatalf("job %d has no result: %+v", i, line)
		}
	}
	// The two mappers produce different netlists — the hashes must differ.
	if results[0].BLIFSHA256 == results[1].BLIFSHA256 {
		t.Fatalf("mis and lily produced identical mapped BLIF hashes")
	}

	// Replaying the stream yields the same set: results are not consumed.
	again := readStream(t, ts.URL+ack.Stream)
	if len(again) != 2 || again[0].Digest != results[0].Digest {
		t.Fatalf("stream not replayable: %+v", again)
	}

	// The batch shows up fully done in the listing.
	r, err := http.Get(ts.URL + "/v1/batches")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]BatchSummary](t, r)
	if len(list) != 1 || list[0].ID != ack.ID || list[0].Done != 2 {
		t.Fatalf("batch listing = %+v, want 1 fully-done batch", list)
	}
}

// TestBatchRejectsInvalidWholesale: validation runs before any submit,
// so one bad job rejects the whole batch without leaving work behind.
func TestBatchRejectsInvalidWholesale(t *testing.T) {
	ts, eng := newBatchFakeServer(t)

	cases := []BatchSubmitRequest{
		{}, // empty
		{Jobs: []SubmitRequest{
			{Benchmark: "misex1", Options: JobOptions{Mapper: "lily"}},
			{Benchmark: "misex1", Options: JobOptions{Mapper: "nonesuch"}},
		}},
		{Jobs: []SubmitRequest{
			{Benchmark: "misex1", SVG: true, EmitBLIF: true, Options: JobOptions{Mapper: "lily"}},
		}},
		{Jobs: []SubmitRequest{
			{Benchmark: "misex1", TimeoutMS: -5, Options: JobOptions{Mapper: "lily"}},
		}},
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/batches", c)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	// Bodies the strict decoder refuses before any job is resolved.
	for _, body := range []string{
		`{"jobs":[{"benchmark":"misex1"}]} {{{`,
		`{"jobs":[{"benchmark":"misex1"}]}{"jobs":[]}`,
		`{"jobs":[{"benchmark":"misex1","options":{"parallelism":2}}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if st := eng.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected batches still submitted %d jobs", st.Submitted)
	}
}

// TestBatchGoneAfterEviction pins the 404-vs-410 contract: an ID the
// registry never issued is 404, an issued-then-evicted ID is 410.
func TestBatchGoneAfterEviction(t *testing.T) {
	ts, _ := newBatchFakeServer(t)

	get := func(id string) int {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/batches/" + id)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if got := get("batch-999999"); got != http.StatusNotFound {
		t.Fatalf("never-issued ID: status = %d, want 404", got)
	}
	if got := get("nonsense"); got != http.StatusNotFound {
		t.Fatalf("malformed ID: status = %d, want 404", got)
	}

	// Fill the registry past its bound; batch-000001 must be evicted.
	// Distinct model names keep each job a distinct digest.
	for i := 0; i <= maxRetainedBatches; i++ {
		blif := fmt.Sprintf(".model b%d\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n", i)
		resp := postJSON(t, ts.URL+"/v1/batches", BatchSubmitRequest{Jobs: []SubmitRequest{
			{BLIF: blif, Options: JobOptions{Mapper: "lily"}},
		}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := get("batch-000001"); got != http.StatusGone {
		t.Fatalf("evicted ID: status = %d, want 410", got)
	}
	if got := get(fmt.Sprintf("batch-%06d", maxRetainedBatches+1)); got != http.StatusOK {
		t.Fatalf("retained ID: status = %d, want 200", got)
	}
}
