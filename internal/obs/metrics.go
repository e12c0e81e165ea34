// Package obs is lily's stdlib-only observability substrate: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms, and their
// single-label "vec" variants) with Prometheus text exposition, and
// phase-scoped trace spans carried through the pipeline via context.
//
// Two design rules govern the package:
//
//  1. Scrape-safety: every instrument is updated with atomics (or, for
//     vec label resolution, a short registry-level critical section), so
//     a /metrics scrape concurrent with a hundred mapping jobs sees each
//     counter monotonically non-decreasing and each histogram with
//     _count equal to its +Inf bucket by construction.
//  2. A guaranteed zero-allocation no-op path: when no tracer is
//     installed in the context, StartSpan returns the context unchanged
//     and a nil *Span, and every *Span and *FlowMetrics method is
//     nil-receiver-safe, so the instrumented mapping hot paths cost
//     nothing when observation is off (asserted by
//     BenchmarkDisabledTracer).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations.
// Buckets hold non-cumulative counts; exposition derives the cumulative
// form, and reports _count as the +Inf cumulative total so a concurrent
// scrape can never see _count disagree with the bucket sums.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefBuckets is the default latency bucket ladder (seconds): 1ms .. 60s.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric family: a name, help, kind, and either a single
// unlabeled child or a label name with labeled children.
type family struct {
	name, help string
	kind       metricKind
	label      string // "" for unlabeled families

	mu       sync.Mutex
	children map[string]any // label value -> *Counter | *Histogram
	single   any            // unlabeled instrument (or gauge func)
	buckets  []float64      // histogram families
}

// child returns (creating on demand) the instrument for a label value.
func (f *family) child(labelValue string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labelValue]; ok {
		return c
	}
	var c any
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	default:
		c = newHistogram(f.buckets)
	}
	f.children[labelValue] = c
	return c
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// With returns the counter for a label value. Safe on nil (returns nil).
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(labelValue).(*Counter)
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// With returns the histogram for a label value. Safe on nil (nil out).
func (v *HistogramVec) With(labelValue string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(labelValue).(*Histogram)
}

// Observe records a sample under a label value. Safe on nil (no-op).
func (v *HistogramVec) Observe(labelValue string, sample float64) {
	if v == nil {
		return
	}
	v.With(labelValue).Observe(sample)
}

// gaugeFunc samples a value at scrape time.
type gaugeFunc func() float64

// Registry holds metric families and renders them as Prometheus text
// exposition format v0.0.4. Registration is idempotent: asking for an
// existing name with the same shape returns the existing instrument,
// and a shape mismatch panics (a programming error, like the Prometheus
// client).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the family for name, creating it with the given
// shape, or panics on a shape conflict.
func (r *Registry) register(name, help string, kind metricKind, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, label: label,
		children: make(map[string]any), buckets: buckets,
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = &Counter{}
	}
	return f.single.(*Counter)
}

// CounterVec registers (or fetches) a counter family with one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, label, nil)}
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.single = gaugeFunc(fn)
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, "", buckets)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = newHistogram(buckets)
	}
	return f.single.(*Histogram)
}

// HistogramVec registers (or fetches) a histogram family with one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, label, buckets)}
}

// WritePrometheus renders every family in registration order as
// Prometheus text exposition format v0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family.
func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.Lock()
	single := f.single
	labelValues := make([]string, 0, len(f.children))
	for lv := range f.children {
		labelValues = append(labelValues, lv)
	}
	children := make([]any, 0, len(labelValues))
	sort.Strings(labelValues)
	for _, lv := range labelValues {
		children = append(children, f.children[lv])
	}
	f.mu.Unlock()

	if single != nil {
		f.writeChild(b, "", single)
	}
	for i, lv := range labelValues {
		f.writeChild(b, lv, children[i])
	}
}

// writeChild renders one instrument; labelValue=="" means unlabeled.
func (f *family) writeChild(b *strings.Builder, labelValue string, inst any) {
	sel := ""
	pre := ""
	if f.label != "" && labelValue != "" {
		sel = fmt.Sprintf("{%s=%s}", f.label, strconv.Quote(labelValue))
		pre = fmt.Sprintf("%s=%s,", f.label, strconv.Quote(labelValue))
	}
	switch c := inst.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, sel, c.Value())
	case gaugeFunc:
		fmt.Fprintf(b, "%s%s %s\n", f.name, sel, formatFloat(c()))
	case *Histogram:
		// Snapshot the per-bucket counts once, then derive cumulative
		// counts and the total from that single snapshot so the series
		// is internally consistent even under concurrent Observes.
		counts := make([]uint64, len(c.counts))
		for i := range c.counts {
			counts[i] = c.counts[i].Load()
		}
		var cum uint64
		for i, bound := range c.bounds {
			cum += counts[i]
			fmt.Fprintf(b, "%s_bucket{%sle=%s} %d\n", f.name, pre, strconv.Quote(formatFloat(bound)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, pre, cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, sel, formatFloat(c.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, sel, cum)
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
