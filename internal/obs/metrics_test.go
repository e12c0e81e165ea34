package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition is a strict-enough parser for Prometheus text
// exposition v0.0.4: it validates the # HELP / # TYPE structure and
// returns every sample line as name{selector} -> value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type %q in %q", kind, line)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("family %s TYPEd twice", name)
			}
			typed[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// Sample line: name[{labels}] value
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := key
		if j := strings.IndexByte(base, '{'); j >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("malformed selector in %q", line)
			}
			base = base[:j]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no preceding TYPE line", line)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, b.String())
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(7)
	r.GaugeFunc("test_live", "Live sampled.", func() float64 { return 42 })
	cv := r.CounterVec("test_by_kind_total", "By kind.", "kind")
	cv.With("a").Inc()
	cv.With("b").Add(3)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	s := scrape(t, r)
	want := map[string]float64{
		"test_ops_total":                         7,
		"test_live":                              42,
		`test_by_kind_total{kind="a"}`:           1,
		`test_by_kind_total{kind="b"}`:           3,
		`test_latency_seconds_bucket{le="0.1"}`:  1,
		`test_latency_seconds_bucket{le="1"}`:    2,
		`test_latency_seconds_bucket{le="+Inf"}`: 3,
		"test_latency_seconds_count":             3,
		"test_latency_seconds_sum":               5.55,
	}
	for k, v := range want {
		got, ok := s[k]
		if !ok {
			t.Errorf("missing sample %s", k)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestRegistryIdempotentAndConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x")
	b := r.Counter("dup_total", "x")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape conflict did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "now a gauge", func() float64 { return 0 })
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	var cv *CounterVec
	cv.With("x").Inc()
	var hv *HistogramVec
	hv.Observe("x", 1)
	var fm *FlowMetrics
	fm.ObservePhase("cover", 0)
}

// TestScrapeConsistencyUnderConcurrency hammers one histogram and one
// counter from many goroutines while scraping repeatedly, asserting
// that every scrape parses, counters are monotone, and each histogram's
// _count equals its +Inf bucket.
func TestScrapeConsistencyUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "c")
	h := r.Histogram("cc_seconds", "h", DefBuckets)
	cv := r.CounterVec("cc_by_state_total", "v", "state")

	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(seed*i%100) / 50.0)
				cv.With([...]string{"done", "failed"}[i%2]).Inc()
			}
		}(w + 1)
	}

	var lastCount, lastTotal float64
	for i := 0; i < 50; i++ {
		s := scrape(t, r)
		inf := s[`cc_seconds_bucket{le="+Inf"}`]
		if cnt := s["cc_seconds_count"]; cnt != inf {
			t.Fatalf("scrape %d: _count %v != +Inf bucket %v", i, cnt, inf)
		}
		if cnt := s["cc_seconds_count"]; cnt < lastCount {
			t.Fatalf("scrape %d: histogram count went backwards (%v < %v)", i, cnt, lastCount)
		} else {
			lastCount = cnt
		}
		if tot := s["cc_total"]; tot < lastTotal {
			t.Fatalf("scrape %d: counter went backwards (%v < %v)", i, tot, lastTotal)
		} else {
			lastTotal = tot
		}
	}
	wg.Wait()

	s := scrape(t, r)
	if got := s["cc_total"]; got != writers*perWriter {
		t.Fatalf("final counter = %v, want %d", got, writers*perWriter)
	}
	if got := s["cc_seconds_count"]; got != writers*perWriter {
		t.Fatalf("final histogram count = %v, want %d", got, writers*perWriter)
	}
	if got := s[`cc_by_state_total{state="done"}`] + s[`cc_by_state_total{state="failed"}`]; got != writers*perWriter {
		t.Fatalf("final vec total = %v, want %d", got, writers*perWriter)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
		1:            "1",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFlowMetricsContext(t *testing.T) {
	r := NewRegistry()
	fm := RegisterFlowMetrics(r)
	fm.ObservePhase("cover", 1)
	fm.ObservePhase("not-a-phase", 1) // must not create a label
	s := scrape(t, r)
	if got := s[fmt.Sprintf("%s_count{phase=%q}", MetricPhaseDuration, "cover")]; got != 1 {
		t.Fatalf("cover phase count = %v, want 1", got)
	}
	if _, ok := s[fmt.Sprintf("%s_count{phase=%q}", MetricPhaseDuration, "not-a-phase")]; ok {
		t.Fatal("non-phase span leaked into the phase histogram")
	}
}
