// Determinism guarantees underpin the flow engine's content-addressed
// result cache and the parallel table generation: a FlowOptions-keyed run
// must produce byte-identical results no matter when, where, or alongside
// what it executes. These tests pin that property at the public API
// boundary (external test package so it can also drive the engine, which
// imports lily).
package lily_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"lily"
	"lily/internal/engine"
)

// resultBytes canonicalizes a FlowResult for byte-wise comparison
// (encoding/json sorts the GateHistogram map keys).
func resultBytes(t *testing.T, r *lily.FlowResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runOn(t *testing.T, name string, opt lily.FlowOptions) []byte {
	t.Helper()
	c, err := lily.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lily.RunFlow(c, opt)
	if err != nil {
		t.Fatalf("RunFlow(%s, %+v): %v", name, opt, err)
	}
	return resultBytes(t, res)
}

// TestRunFlowDeterministic asserts that two identical RunFlow invocations
// on the same benchmark produce byte-identical FlowResults — the
// correctness precondition for the engine's cache keying.
func TestRunFlowDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  lily.FlowOptions
	}{
		{"b9", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea}},
		{"b9", lily.FlowOptions{Mapper: lily.MapperMIS, Objective: lily.ObjectiveArea}},
		{"misex1", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveDelay}},
	} {
		a := runOn(t, tc.name, tc.opt)
		b := runOn(t, tc.name, tc.opt)
		if !bytes.Equal(a, b) {
			t.Errorf("%s/%s/%s: repeated runs differ:\n%s\n%s",
				tc.name, tc.opt.Mapper, tc.opt.Objective, a, b)
		}
	}
}

// TestAutoTunePortfolioDeterministic pins the concurrent portfolio: the
// four §5 variants race on separate goroutines, but the winner must be
// the same on every invocation (deterministic in-order selection).
func TestAutoTunePortfolioDeterministic(t *testing.T) {
	opt := lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea, AutoTune: true}
	a := runOn(t, "misex1", opt)
	b := runOn(t, "misex1", opt)
	if !bytes.Equal(a, b) {
		t.Fatalf("AutoTune portfolio nondeterministic:\n%s\n%s", a, b)
	}
}

// TestCloneRunsIdentically asserts a cloned circuit maps byte-identically
// to its original — clones are how the engine and the portfolio isolate
// concurrent runs, so any divergence would corrupt cached results.
func TestCloneRunsIdentically(t *testing.T) {
	c, err := lily.GenerateBenchmark("b9")
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	opt := lily.FlowOptions{Mapper: lily.MapperLily}
	orig, err := lily.RunFlow(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := lily.RunFlow(clone, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, orig), resultBytes(t, cloned)) {
		t.Fatalf("clone mapped differently:\n%s\n%s", resultBytes(t, orig), resultBytes(t, cloned))
	}
}

// TestEngineMatchesDirectRun asserts the worker-pool path is observably
// identical to the in-process path — the property that lets cmd/tables
// fan out across the engine without changing the paper's tables.
func TestEngineMatchesDirectRun(t *testing.T) {
	opt := lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea}
	direct := runOn(t, "misex1", opt)

	eng := engine.New(engine.Config{Workers: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	out, err := eng.Run(context.Background(), engine.Request{Benchmark: "misex1", Options: opt})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if got := resultBytes(t, out.Result); !bytes.Equal(direct, got) {
		t.Fatalf("engine result differs from direct run:\n%s\n%s", direct, got)
	}
}

// mappedBytes runs the full pipeline and returns the mapped, placed
// netlist as the exact bytes WriteMappedBLIF emits.
func mappedBytes(t *testing.T, name string, opt lily.FlowOptions) []byte {
	t.Helper()
	c, err := lily.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lily.WriteMappedBLIF(c, opt, &buf); err != nil {
		t.Fatalf("WriteMappedBLIF(%s, %+v): %v", name, opt, err)
	}
	return buf.Bytes()
}

// TestMappedBLIFGOMAXPROCSInvariant is the determinism soak guarding the
// hot-path work (DESIGN.md §11): the mapped netlist bytes must not depend
// on scheduler parallelism. Each circuit/objective pair maps under
// GOMAXPROCS ∈ {1, 2, NumCPU} and every run must emit byte-identical
// BLIF — the scratch buffers, memoized match lists, and epoch caches the
// cover DP reuses are all per-run state, so any divergence here means
// shared mutable state leaked between goroutines. CI additionally runs
// this under -race (the full-suite race pass), which turns such leaks
// into hard failures even when the bytes happen to agree.
func TestMappedBLIFGOMAXPROCSInvariant(t *testing.T) {
	levels := dedupLevels([]int{1, 2, runtime.NumCPU()})
	cases := []struct {
		name string
		opt  lily.FlowOptions
	}{
		{"misex1", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea}},
		{"misex1", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveDelay}},
		// AutoTune races the §5 portfolio on separate goroutines; its
		// winner selection must also be schedule-independent.
		{"misex1", lily.FlowOptions{Mapper: lily.MapperLily, AutoTune: true}},
		{"b9", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea}},
		// The LUT backend shares the cover DP and its commit path, so
		// both tile sizes get the same byte-identity soak as ASIC.
		{"b9", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea, Target: lily.TargetLUT4}},
		{"b9", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveDelay, Target: lily.TargetLUT6}},
		{"misex1", lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea, Target: lily.TargetLUT6}},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var want []byte
		for _, procs := range levels {
			runtime.GOMAXPROCS(procs)
			got := mappedBytes(t, tc.name, tc.opt)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s/%v@%v: GOMAXPROCS=%d changed the mapped BLIF (%d vs %d bytes)",
					tc.name, tc.opt.Objective, tc.opt.Target, procs, len(want), len(got))
			}
		}
	}
}

// dedupLevels drops repeated GOMAXPROCS levels (NumCPU is often 1 or 2)
// while preserving order.
func dedupLevels(in []int) []int {
	var out []int
	for _, v := range in {
		dup := false
		for _, u := range out {
			dup = dup || u == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// TestConcurrentRuns covers the concurrency the engine really has:
// whole pipelines running side by side on its workers. Six runs across ASIC area, ASIC delay, lut4 and
// lut6 execute at once, and each must emit the bytes of its own solo
// run. Under -race (CI's race-lifecycle job) any state shared between
// two runs is a hard failure, not just a byte mismatch.
func TestConcurrentRuns(t *testing.T) {
	configs := []lily.FlowOptions{
		{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea},
		{Mapper: lily.MapperLily, Objective: lily.ObjectiveDelay},
		{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea, Target: lily.TargetLUT4},
		{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea, Target: lily.TargetLUT6},
	}
	solo := make([][]byte, len(configs))
	for k, opt := range configs {
		solo[k] = mappedBytes(t, "misex1", opt)
	}

	const runs = 6
	outs := make([][]byte, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := lily.GenerateBenchmark("misex1")
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if _, err := lily.WriteMappedBLIF(c, configs[i%len(configs)], &buf); err != nil {
				errs[i] = err
				return
			}
			outs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		opt := configs[i%len(configs)]
		if want := solo[i%len(configs)]; !bytes.Equal(outs[i], want) {
			t.Errorf("run %d (%v@%v): bytes diverge from the solo run (%d vs %d)",
				i, opt.Objective, opt.Target, len(outs[i]), len(want))
		}
	}
}

// TestRunFlowContextCancelled asserts an already-cancelled context aborts
// the flow without doing work.
func TestRunFlowContextCancelled(t *testing.T) {
	c, err := lily.GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lily.RunFlowContext(ctx, c, lily.FlowOptions{}); err != context.Canceled {
		t.Fatalf("RunFlowContext on cancelled ctx = %v, want context.Canceled", err)
	}
}
