// Command lilybench is Lily's end-to-end benchmark. It generates one
// workload's inputs from a seed, sets the workload up several times, runs
// timed passes for a fixed time, checks every output, and prints one JSON
// line of metrics last on standard output. With -trace 1 it adds a traced
// pass that calls each layer itself and prints per-layer metrics instead.
// A human-readable report goes to standard error. See README.md.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// config is what a run's workload needs from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	goldens map[string]string
}

// golden returns the pinned hash for key, if the table has one.
func (c config) golden(key string) ([32]byte, bool) {
	var sum [32]byte
	h, ok := c.goldens[key]
	if key == "" || !ok {
		return sum, false
	}
	b, err := hex.DecodeString(h)
	if err != nil || len(b) != len(sum) {
		return sum, false
	}
	copy(sum[:], b)
	return sum, true
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lilybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, scale, verified or service")
	seed := fs.Int64("seed", defaultSeed, "seed of the seeded circuit and of the service's request order")
	seconds := fs.Float64("seconds", 10, "length of the timed region in seconds (at least one pass runs)")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	goldenPath := fs.String("golden", "testdata/golden.json", "golden table of mapped-BLIF hashes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "lilybench: need -workload paper|scale|verified|service, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	goldens, err := loadGoldens(*goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "lilybench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, goldens: goldens}
	fmt.Fprintf(stderr, "lilybench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		*name, cfg.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := execute(*name, setup, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "lilybench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "lilybench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func loadGoldens(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read goldens: %w", err)
	}
	var entries map[string]struct {
		BLIFSHA256 string `json:"blif_sha256"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := make(map[string]string, len(entries))
	for k, e := range entries {
		out[k] = e.BLIFSHA256
	}
	return out, nil
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up setupReps times, runs untraced passes until
// the next one would overrun cfg.seconds, adds one traced pass when asked,
// then checks every output.
func execute(name string, setup func(config, *tracer) (instance, error), cfg config, log io.Writer) (*result, error) {
	var inst instance
	var tr *tracer
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		if cfg.trace && i == setupReps-1 {
			tr = newTracer()
		}
		start := time.Now()
		var err error
		if inst, err = setup(cfg, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintf(log, "lilybench: close: %v\n", err)
		}
	}()

	var passes []passResult
	var spent time.Duration
	for len(passes) == 0 || spent+passes[len(passes)-1].dur <= cfg.seconds {
		p, err := runPass(inst, nil, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		spent += p.dur
	}
	untraced := len(passes)
	ls := &layerStats{}
	if cfg.trace {
		p, err := runPass(inst, tr, ls)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	problems := inst.verify(passes, ls)
	for _, p := range problems {
		fmt.Fprintf(log, "FAIL %s\n", p)
	}

	res := &result{Metrics: make(map[string]metric)}
	for _, p := range passes {
		for _, o := range p.ops {
			res.Attempted++
			if o.failed {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	var passDurs, passAlloc []float64
	for _, p := range passes[:untraced] {
		passDurs = append(passDurs, p.dur.Seconds())
		passAlloc = append(passAlloc, p.allocMB)
	}
	q := inst.quality()
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"run_s":         {median(passDurs), "s"},
		"alloc_mb":      {median(passAlloc), "MB"},
		"chip_area_mm2": {q.ChipAreaMM2, "mm2"},
		"wirelength_mm": {q.WirelengthMM, "mm"},
		"delay_ns":      {q.DelayNS, "ns"},
	}
	fmt.Fprintf(log, "setup_s runs: %s\npass_s: %s (%d untraced passes)\nalloc_mb: %s\npeak RSS %.1f MB\n",
		fmtList(setups), fmtList(passDurs), untraced, fmtList(passAlloc), peakRSSMB())
	printOpStats(log, passes[:untraced])
	fmt.Fprintf(log, "quality: %d gates, %.6f mm2 chip area, %.6f mm wirelength, %.6f ns delay\n",
		q.Gates, q.ChipAreaMM2, q.WirelengthMM, q.DelayNS)
	if ls.checks > 0 {
		fmt.Fprintf(log, "equivalence: %d of %d checks proved by BDD, the rest sampled by simulation\n", ls.proved, ls.checks)
	}
	fmt.Fprintf(log, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	if !cfg.trace {
		res.Metrics = e2e
		printMetrics(log, "end-to-end", e2e)
		return res, nil
	}
	traced := passes[len(passes)-1]
	res.Metrics = layerMetrics(tr, ls, passes[:untraced], traced, median(passDurs))
	printWhereTimeGoes(log, name, tr, ls, res.Metrics)
	return res, nil
}

// runPass prepares and runs one pass. Every pass starts from a collected
// heap, so garbage from set-up or an earlier pass does not shift its timing.
func runPass(inst instance, tr *tracer, ls *layerStats) (passResult, error) {
	if err := inst.prepare(); err != nil {
		return passResult{}, fmt.Errorf("prepare pass: %w", err)
	}
	runtime.GC()
	alloc := allocatedBytes()
	p := inst.pass(tr, ls)
	p.allocMB = float64(allocatedBytes()-alloc) / (1 << 20)
	return p, nil
}

// allocatedBytes is the heap bytes the process has allocated so far.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// printOpStats prints per-operation latency: overall, and split into
// cache hits and misses when the workload has hits.
func printOpStats(log io.Writer, passes []passResult) {
	var all, hits, misses []float64
	for _, p := range passes {
		for _, o := range p.ops {
			all = append(all, ms(o.dur))
			if o.hit {
				hits = append(hits, ms(o.dur))
			} else if o.miss {
				misses = append(misses, ms(o.dur))
			}
		}
	}
	line := func(name string, xs []float64) {
		t := tail(xs)
		tl := fmt.Sprintf("p%g %.3f ms", t.Pct, t.Value)
		if !t.OK {
			tl = fmt.Sprintf("max %.3f ms (under 20 samples: no percentile has ten beyond it)", t.Value)
		}
		fmt.Fprintf(log, "%-6s n=%-5d p50 %.3f ms, %s\n", name, len(xs), median(xs), tl)
	}
	line("ops", all)
	if len(hits) > 0 {
		line("hits", hits)
		line("misses", misses)
	}
}

func printMetrics(log io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "%s metrics:\n", title)
	for _, k := range names {
		fmt.Fprintf(log, "  %-24s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
}
