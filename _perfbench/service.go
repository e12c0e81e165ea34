package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"lily"
	"lily/internal/engine"
	"lily/internal/logic"
	"lily/internal/obs"
	"lily/internal/server"
)

const (
	// clients is the closed loop's client count: each sends its next
	// request only after the previous one's result arrived. It stays at
	// or below the core count of the host the benchmark targets (2).
	clients = 2
	// repeats is how many times each circuit is submitted per pass; the
	// first submission misses the cache and the rest hit it.
	repeats = 5
)

// serviceCircuits are the circuits whose area-mode Lily output
// testdata/golden.json pins (the paper suite plus the two midsize
// carriers) and the seeded circuit.
func serviceCircuits() []string {
	return append(lily.BenchmarkNames(), "mid5k", "mid10k", seededCircuit)
}

// lilyd is an in-process lilyd: the engine and HTTP handler with lilyd's
// default settings, served on a loopback port.
type lilyd struct {
	eng  *engine.Engine
	srv  *http.Server
	base string
	done chan error
}

func startLilyd() (*lilyd, error) {
	eng := engine.New(engine.Config{
		Workers:         runtime.GOMAXPROCS(0),
		CacheEntries:    256,
		DefaultTimeout:  10 * time.Minute,
		MaxRetainedJobs: 4096,
		RetainFor:       time.Hour,
		Metrics:         obs.NewRegistry(),
		Trace:           true,
		LoadShed:        true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shutdownEngine(eng)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &lilyd{
		eng: eng,
		srv: &http.Server{
			Handler:           server.New(eng, server.WithDefaultTarget(lily.TargetASIC)),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    1 << 20,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the engine down and waits for both.
func (d *lilyd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, d.eng.Shutdown(ctx))
}

func shutdownEngine(eng *engine.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = eng.Shutdown(ctx) // only reached on a failed start; the listen error is reported
}

// service drives a fresh lilyd per pass with a seeded request stream.
type service struct {
	cfg    config
	inputs []*input
	bodies [][]byte
	// streams[c] is client c's request sequence (input indices). Circuits
	// are split between the clients by size so both carry similar miss
	// work; the seed orders each client's sequence.
	streams [clients][]int
	d       *lilyd
	http    *http.Client
	passes  []servicePass
}

// servicePass records a pass's requests (client 0's, then client 1's) and
// each circuit's mapped output, read from the engine after the pass.
type servicePass struct {
	reqs   []reqOut
	mapped [][]byte
}

type reqOut struct {
	input  int
	jobID  string
	hit    bool
	result []byte // the FlowResult JSON
	err    error
}

func setupService(cfg config, tr *tracer) (*service, error) {
	s := &service{cfg: cfg}
	for _, name := range serviceCircuits() {
		in, err := makeInput(name, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.SubmitRequest{
			BLIF: string(in.blif), EmitBLIF: true,
			Options: server.JobOptions{Mapper: "lily", Objective: "area", Target: "asic"},
		})
		if err != nil {
			return nil, err
		}
		s.inputs = append(s.inputs, in)
		s.bodies = append(s.bodies, body)
	}
	s.streams = serviceStreams(s.inputs, cfg.seed)
	s.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	if err := s.prepare(); err != nil {
		return nil, err
	}
	// Warm-up: one delay-mode flow, whose digest no stream request shares.
	warm, err := makeInput("misex1", cfg.seed, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	body, err := json.Marshal(server.SubmitRequest{BLIF: string(warm.blif),
		Options: server.JobOptions{Objective: "delay"}})
	if err != nil {
		s.close()
		return nil, err
	}
	if _, _, err := s.roundTrip(body); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

// serviceStreams assigns circuits to clients, largest first to the less
// loaded client, and gives each client a seeded shuffle of its circuits'
// repeated submissions.
func serviceStreams(inputs []*input, seed int64) [clients][]int {
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	size := func(i int) int { return len(inputs[i].net.Nodes) }
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	var load [clients]int
	var streams [clients][]int
	for _, i := range order {
		c := 0
		for k := 1; k < clients; k++ {
			if load[k] < load[c] {
				c = k
			}
		}
		load[c] += size(i)
		for r := 0; r < repeats; r++ {
			streams[c] = append(streams[c], i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := range streams {
		rng.Shuffle(len(streams[c]), func(a, b int) { streams[c][a], streams[c][b] = streams[c][b], streams[c][a] })
	}
	return streams
}

// prepare replaces the server with a fresh one, so every pass starts with
// an empty cache.
func (s *service) prepare() error {
	if s.d != nil {
		if err := s.d.stop(); err != nil {
			return err
		}
		s.d = nil
	}
	d, err := startLilyd()
	if err != nil {
		return err
	}
	s.d = d
	return nil
}

func (s *service) pass(tr *tracer, _ *layerStats) passResult {
	var outs [clients][]reqOut
	var ops [clients][]op
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range s.streams[c] {
				o, p := s.request(i, tr)
				outs[c] = append(outs[c], o)
				ops[c] = append(ops[c], p)
			}
		}(c)
	}
	wg.Wait()
	res := passResult{dur: time.Since(start)}
	var sp servicePass
	for c := 0; c < clients; c++ {
		sp.reqs = append(sp.reqs, outs[c]...)
		res.ops = append(res.ops, ops[c]...)
	}
	// The mapped BLIF of each circuit, as the miss that computed it left it
	// in the engine.
	sp.mapped = make([][]byte, len(s.inputs))
	for _, r := range sp.reqs {
		if r.err != nil || r.hit || sp.mapped[r.input] != nil {
			continue
		}
		if j, ok := s.d.eng.Job(r.jobID); ok && j.Outcome() != nil {
			sp.mapped[r.input] = j.Outcome().MappedBLIF
		}
	}
	s.passes = append(s.passes, sp)
	return res
}

// request submits one circuit and waits for its result, as a lilyd client
// does: POST the job, long-poll its status, then GET the result.
func (s *service) request(i int, tr *tracer) (reqOut, op) {
	out := reqOut{input: i}
	start := time.Now()
	root := tr.begin("service.request", -1)
	if tr != nil {
		// What the server does first with the upload, timed from outside.
		blif := s.inputs[i].blif
		_ = tr.do("logic.parse", root, func() error {
			_, err := logic.ParseBLIF(bytes.NewReader(blif))
			return err
		})
		_ = tr.do("engine.digest", root, func() error {
			_, err := engine.RequestDigest(engine.Request{BLIF: blif, EmitBLIF: true})
			return err
		})
	}
	st, result, err := s.roundTrip(s.bodies[i])
	dur := time.Since(start)
	tr.end(root)
	if err == nil {
		tr.add("engine.queue_wait", root, st.SubmittedAt, st.StartedAt)
		tr.add("engine.job_run", root, st.StartedAt, st.FinishedAt)
	}
	out.jobID, out.hit, out.result, out.err = st.ID, st.CacheHit, result, err
	return out, op{dur: dur, failed: err != nil, hit: err == nil && st.CacheHit, miss: err == nil && !st.CacheHit}
}

// roundTrip submits body and returns the finished job's status and result.
// Any non-2xx response or a job that did not finish is an error.
func (s *service) roundTrip(body []byte) (engine.Status, []byte, error) {
	var st engine.Status
	var sub server.SubmitResponse
	if err := s.call(http.MethodPost, "/v1/jobs", body, &sub); err != nil {
		return st, nil, err
	}
	if err := s.call(http.MethodGet, sub.Status+"?wait=60s", nil, &st); err != nil {
		return st, nil, err
	}
	if st.State != "done" {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var raw json.RawMessage
	if err := s.call(http.MethodGet, sub.Result, nil, &raw); err != nil {
		return st, nil, err
	}
	return st, raw, nil
}

func (s *service) call(method, path string, body []byte, into any) error {
	req, err := http.NewRequest(method, s.d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// verify checks each circuit's mapped output (golden hash where pinned,
// else an equivalence check plus equal bytes in every pass), and that
// every request for a circuit returned the same result as its miss.
func (s *service) verify(passes []passResult, ls *layerStats) []string {
	var problems []string
	fail := func(p, k int, format string, args ...any) {
		passes[p].ops[k].failed = true
		problems = append(problems, fmt.Sprintf("pass %d request %d: ", p, k)+fmt.Sprintf(format, args...))
	}
	ref := make([][32]byte, len(s.inputs))
	refErr := make([]error, len(s.inputs))
	for i, in := range s.inputs {
		mapped := s.passes[0].mapped[i]
		key := goldenKey(in.name, lily.FlowOptions{})
		if want, ok := s.cfg.golden(key); ok {
			ref[i] = want
		} else if mapped != nil {
			ref[i] = digest(mapped)
			refErr[i] = checkEquivalent(in.net, mapped, ls)
		}
	}
	for p, sp := range s.passes {
		missResult := make([][]byte, len(s.inputs))
		for _, r := range sp.reqs {
			if r.err == nil && !r.hit {
				missResult[r.input] = r.result
			}
		}
		for k, r := range sp.reqs {
			i := r.input
			switch {
			case r.err != nil:
				fail(p, k, "%s: %v", s.inputs[i].name, r.err)
			case refErr[i] != nil:
				fail(p, k, "%s: %v", s.inputs[i].name, refErr[i])
			case sp.mapped[i] == nil:
				fail(p, k, "%s: no mapped BLIF in the engine", s.inputs[i].name)
			case digest(sp.mapped[i]) != ref[i]:
				fail(p, k, "%s: mapped BLIF hash %s, want %s", s.inputs[i].name, hexSum(digest(sp.mapped[i])), hexSum(ref[i]))
			case !bytes.Equal(r.result, missResult[i]):
				fail(p, k, "%s: result differs from the miss's", s.inputs[i].name)
			}
		}
	}
	return problems
}

// quality sums the first pass's results over the circuits.
func (s *service) quality() quality {
	var q quality
	seen := make([]bool, len(s.inputs))
	for _, r := range s.passes[0].reqs {
		if r.err != nil || seen[r.input] {
			continue
		}
		var fr lily.FlowResult
		if json.Unmarshal(r.result, &fr) == nil {
			seen[r.input] = true
			q.add(qualityOf(&fr))
		}
	}
	return q
}

func (s *service) close() error {
	var err error
	if s.d != nil {
		err = s.d.stop()
		s.d = nil
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	return err
}
