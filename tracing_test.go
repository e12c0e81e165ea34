package lily

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lily/internal/obs"
)

func TestWriteMappedBLIFContext(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := WriteMappedBLIFContext(context.Background(), c, FlowOptions{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Gates == 0 {
		t.Fatalf("empty flow result: %+v", res)
	}
	if !strings.Contains(buf.String(), ".gate") {
		t.Fatal("mapped BLIF output has no .gate lines")
	}
}

func TestWriteMappedBLIFContextCancelled(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the pipeline starts
	var buf bytes.Buffer
	_, err = WriteMappedBLIFContext(ctx, c, FlowOptions{}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled run wrote %d bytes of BLIF", buf.Len())
	}

	// Cancelled mid-flight: the context dies as the preopt span ends, so
	// the premap phase's placement fails, and its span carries the error.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	tr := obs.NewTracer()
	tr.OnSpanEnd = func(name string, _ time.Duration) {
		if name == "preopt" {
			cancel()
		}
	}
	_, err = WriteMappedBLIFContext(obs.WithTracer(ctx, tr), c,
		FlowOptions{PreOptimize: true, LayoutDrivenDecomposition: true}, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("mid-flight cancelled run wrote %d bytes of BLIF", buf.Len())
	}
	premap := findSpan(tr.Tree(), "premap")
	if premap == nil || premap.Error != context.Canceled.Error() || premap.DurationNS < 0 {
		t.Fatalf("premap span = %+v, want it ended with error %q", premap, context.Canceled.Error())
	}
}

// flattenSpans counts span names in a forest.
func flattenSpans(nodes []*obs.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		flattenSpans(n.Children, into)
	}
}

// TestFlowTraceCoversPhases runs the full-featured flow under a tracer
// and asserts every pipeline phase recorded a span.
func TestFlowTraceCoversPhases(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := RunFlowContext(ctx, c, FlowOptions{
		PreOptimize:    true,
		FanoutOptimize: true,
		ClockPeriodNS:  100,
	}); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	flattenSpans(tr.Tree(), names)
	for _, phase := range []string{"preopt", "premap", "placement", "cover", "fanout", "layout", "timing"} {
		if names[phase] == 0 {
			t.Errorf("trace missing %q span (got %v)", phase, names)
		}
	}
}

// TestPortfolioTraceIncludesLosers asserts the AutoTune portfolio records
// one variant span per configuration — winners and losers alike — plus
// the winner attribution on the portfolio span.
func TestPortfolioTraceIncludesLosers(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := RunFlowContext(ctx, c, FlowOptions{AutoTune: true}); err != nil {
		t.Fatal(err)
	}
	roots := tr.Tree()
	names := make(map[string]int)
	flattenSpans(roots, names)
	if names["portfolio"] != 1 {
		t.Fatalf("portfolio spans = %d, want 1 (%v)", names["portfolio"], names)
	}
	if names["variant"] != 4 {
		t.Fatalf("variant spans = %d, want 4 (%v)", names["variant"], names)
	}
	// The portfolio root carries winner attribution.
	var portfolio *obs.SpanNode
	for _, r := range roots {
		if r.Name == "portfolio" {
			portfolio = r
		}
	}
	if portfolio == nil {
		t.Fatal("no portfolio root span")
	}
	if _, ok := portfolio.Attrs["winner_config"]; !ok {
		t.Fatalf("portfolio span lacks winner_config: %+v", portfolio.Attrs)
	}
}

// findSpan returns the first span named name in a depth-first walk.
func findSpan(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if s := findSpan(n.Children, name); s != nil {
			return s
		}
	}
	return nil
}

// TestFlowMetricsCount asserts the mapper feeds the flow counters when a
// FlowMetrics bundle is installed in the context, and that the cover
// span's pruned attribute matches the pruned counter.
func TestFlowMetricsCount(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	fm := obs.RegisterFlowMetrics(r)
	tr := obs.NewTracer()
	ctx := obs.WithTracer(obs.ContextWithFlowMetrics(context.Background(), fm), tr)
	if _, err := RunFlowContext(ctx, c, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	if fm.ConesMapped.Value() == 0 {
		t.Error("no cones counted")
	}
	if fm.WireEvals.Value() == 0 {
		t.Error("no wire-cost evaluations counted")
	}
	if fm.Pruned.Value() == 0 || fm.Pruned.Value() >= fm.WireEvals.Value() {
		t.Errorf("pruned = %d of %d candidates, want a proper nonzero share",
			fm.Pruned.Value(), fm.WireEvals.Value())
	}
	cover := findSpan(tr.Tree(), "cover")
	if cover == nil {
		t.Fatal("no cover span")
	}
	if got := cover.Attrs["pruned"]; got != int64(fm.Pruned.Value()) {
		t.Errorf("cover span pruned = %v, want %d", got, fm.Pruned.Value())
	}
	if fm.CGIterations.Value() == 0 {
		t.Error("no CG iterations counted")
	}
}
