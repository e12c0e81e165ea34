package obs

import (
	"context"
	"time"
)

// Flow-level metric names (exported so tests and dashboards reference
// one source of truth).
const (
	MetricJobDuration   = "lily_job_duration_seconds"
	MetricPhaseDuration = "lily_phase_duration_seconds"
	MetricConesMapped   = "lily_cones_mapped_total"
	MetricWireEvals     = "lily_wire_cost_evaluations_total"
	MetricPruned        = "lily_cover_candidates_pruned_total"
	MetricReused        = "lily_cover_candidates_reused_total"
	MetricCGIterations  = "lily_place_cg_iterations_total"
	MetricReplacements  = "lily_place_replacements_total"
)

// PhaseNames lists the span names that count as pipeline phases: the
// engine folds exactly these spans into the lily_phase_duration_seconds
// histogram, keeping the label cardinality fixed.
var PhaseNames = []string{
	"preopt", "premap", "placement", "cover", "fanout",
	"verify", "layout", "timing",
}

// FlowMetrics bundles the instruments the flow itself updates while
// mapping: cone/wire-evaluation counters and placement solver effort.
// It travels via context (ContextWithFlowMetrics) so internal packages
// need no registry plumbing; FlowMetricsFrom on a bare context returns
// a shared unregistered sink, so call sites never branch on nil.
type FlowMetrics struct {
	// PhaseDuration observes per-phase wall time, labeled by phase.
	PhaseDuration *HistogramVec
	// ConesMapped counts committed cones across all jobs.
	ConesMapped *Counter
	// WireEvals counts wire-cost evaluations: one per candidate match
	// considered by the DP, the ones Pruned skips included.
	WireEvals *Counter
	// Pruned counts the candidates among WireEvals that the area-mode
	// lower bound ruled out before their wire cost was computed.
	Pruned *Counter
	// Reused counts the candidates among WireEvals that were neither
	// pruned nor costed: the cover DP took their exact cost from an
	// earlier evaluation whose inputs had not changed.
	Reused *Counter
	// CGIterations counts conjugate-gradient solver iterations.
	CGIterations *Counter
	// Replacements counts §3.2 periodic global re-placements.
	Replacements *Counter
}

// RegisterFlowMetrics registers the flow instruments on r (idempotent)
// and returns the bundle.
func RegisterFlowMetrics(r *Registry) *FlowMetrics {
	return &FlowMetrics{
		PhaseDuration: r.HistogramVec(MetricPhaseDuration,
			"Wall time per pipeline phase.", "phase", DefBuckets),
		ConesMapped: r.Counter(MetricConesMapped,
			"Logic cones committed by the Lily mapper."),
		WireEvals: r.Counter(MetricWireEvals,
			"Wire-cost evaluations performed by the mapper DP."),
		Pruned: r.Counter(MetricPruned,
			"Candidate matches the area-mode cover DP skipped by its lower bound."),
		Reused: r.Counter(MetricReused,
			"Candidate matches whose cost the cover DP reused from an earlier evaluation."),
		CGIterations: r.Counter(MetricCGIterations,
			"Conjugate-gradient iterations spent in global placement."),
		Replacements: r.Counter(MetricReplacements,
			"Periodic global re-placements of the partially mapped network."),
	}
}

// noopFlow is the shared sink returned when a context carries no
// metrics: its counters are real (atomic) but unregistered, so the
// instrumented hot paths stay branch-free and allocation-free.
var noopFlow = &FlowMetrics{
	ConesMapped:  &Counter{},
	WireEvals:    &Counter{},
	Pruned:       &Counter{},
	Reused:       &Counter{},
	CGIterations: &Counter{},
	Replacements: &Counter{},
}

type flowKey struct{}

// ContextWithFlowMetrics attaches fm for the pipeline to find. A nil fm
// returns ctx unchanged.
func ContextWithFlowMetrics(ctx context.Context, fm *FlowMetrics) context.Context {
	if fm == nil {
		return ctx
	}
	return context.WithValue(ctx, flowKey{}, fm)
}

// FlowMetricsFrom returns the context's flow metrics, or the shared
// unregistered sink when none is installed. Never nil.
func FlowMetricsFrom(ctx context.Context) *FlowMetrics {
	if fm, ok := ctx.Value(flowKey{}).(*FlowMetrics); ok {
		return fm
	}
	return noopFlow
}

// ObservePhase folds a span end into the per-phase histogram when the
// name is one of PhaseNames. Safe on a nil receiver.
func (fm *FlowMetrics) ObservePhase(name string, d time.Duration) {
	if fm == nil || fm.PhaseDuration == nil {
		return
	}
	for _, p := range PhaseNames {
		if p == name {
			fm.PhaseDuration.Observe(name, d.Seconds())
			return
		}
	}
}
