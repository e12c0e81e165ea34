package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// layerSpans maps the benchmark's span names to per-layer metric names.
// Each span wraps one call into the layer's package; the service's request
// span, less its children, is the HTTP and server overhead.
var layerSpans = []struct{ span, metric string }{
	{"decomp.premap", "decomp.premap"},
	{"place.global", "place.global"},
	{"core.cover", "core.cover"},
	{"cut.cover", "cut.cover"},
	{"mis.cover", "mis.cover"},
	{"equiv.verify", "equiv.verify"},
	{"layout.backend", "layout.backend"},
	{"timing.sta", "timing.sta"},
	{"netlist.emit", "netlist.emit"},
	{"logic.parse", "logic.parse"},
	{"engine.digest", "engine.digest"},
	{"engine.queue_wait", "engine.queue_wait"},
	{"engine.job_run", "engine.job_run"},
	{"service.request", "server.overhead"},
}

// layerMetrics computes the per-layer metrics of a traced run: each
// layer's self time and its share of all recorded self time (the last
// set-up and the traced pass), the layers' counts, the service's latency
// split, and the tracing overhead against the untraced passes' median.
func layerMetrics(tr *tracer, ls *layerStats, untraced []passResult, traced passResult, untracedRunS float64) map[string]metric {
	self := foldRoots(tr.selfTimes())
	var total time.Duration
	for _, d := range self {
		total += d
	}
	m := make(map[string]metric)
	for _, l := range layerSpans {
		d := self[l.span].Seconds()
		m[l.metric+"_s"] = metric{d, "s"}
		share := 0.0
		if total > 0 {
			share = d / total.Seconds()
		}
		m[l.metric+".share"] = metric{share, "fraction"}
	}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	count("core.wire_evals", float64(ls.coreWireEvals))
	count("core.cones", float64(ls.cones))
	count("core.reincarnations", float64(ls.reincarnations))
	count("cut.wire_evals", float64(ls.cutWireEvals))
	count("place.cg_iterations", float64(ls.cgIterations))
	count("layout.rows", float64(ls.rows))
	count("decomp.subject_nodes", float64(ls.subjectNodes))
	count("equiv.bdd_nodes_peak", float64(ls.bddPeak))
	m["netlist.emit_bytes"] = metric{float64(ls.emitBytes), "bytes"}
	proved := 0.0
	if ls.checks > 0 {
		proved = float64(ls.proved) / float64(ls.checks)
	}
	m["equiv.proved_frac"] = metric{proved, "fraction"}

	var hits, misses []float64
	ops := 0
	var busy time.Duration
	for _, p := range untraced {
		busy += p.dur
		for _, o := range p.ops {
			ops++
			if o.hit {
				hits = append(hits, ms(o.dur))
			} else if o.miss {
				misses = append(misses, ms(o.dur))
			}
		}
	}
	ratio := 0.0
	if ops > 0 {
		ratio = float64(len(hits)) / float64(ops)
	}
	m["engine.cache_hit_ratio"] = metric{ratio, "fraction"}
	if len(hits) > 0 {
		m["service.hit_p50_ms"] = metric{median(hits), "ms"}
		m["service.hit_tail_ms"] = metric{tail(hits).Value, "ms"}
		m["service.miss_p50_ms"] = metric{median(misses), "ms"}
		m["service.req_per_s"] = metric{float64(ops) / busy.Seconds(), "1/s"}
	} else {
		for _, k := range []string{"service.hit_p50_ms", "service.hit_tail_ms", "service.miss_p50_ms"} {
			m[k] = metric{0, "ms"}
		}
		m["service.req_per_s"] = metric{0, "1/s"}
	}
	overhead := 0.0
	if untracedRunS > 0 {
		overhead = (traced.dur.Seconds() - untracedRunS) / untracedRunS
	}
	m["trace.overhead_frac"] = metric{overhead, "fraction"}
	m["process.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	return m
}

// foldRoots merges the per-flow root spans ("flow:<label>") into one
// "flow" entry: the glue between layer calls.
func foldRoots(self map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, len(self))
	for k, d := range self {
		if strings.HasPrefix(k, "flow:") {
			k = "flow"
		}
		out[k] += d
	}
	return out
}

// sizingShare is a phase share measured from lilyd traces on a 2-core host
// when the benchmark was sized; the traced run prints its own next to it.
type sizingShare struct {
	flow, layer string
	share       float64
}

var sizing = map[string][]sizingShare{
	"paper": {{"C5315/area/lily", "core.cover", 0.83}},
	"scale": {
		{"gen50k/area/lily", "core.cover", 0.67},
		{"gen50k/area/lily", "place.global", 0.15},
		{"gen50k/area/lily", "layout.backend", 0.12},
	},
	"verified": {
		{"C5315/area/lily", "equiv.verify", 0.73},
		{"mid10k/area/lut6/lily", "cut.cover", 0.77},
	},
}

// printWhereTimeGoes prints the traced run's self time per layer with its
// share and counts, then checks the sizing shares of single flows.
func printWhereTimeGoes(log io.Writer, workload string, tr *tracer, ls *layerStats, m map[string]metric) {
	self := foldRoots(tr.selfTimes())
	var total time.Duration
	names := make([]string, 0, len(self))
	for k, d := range self {
		total += d
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	counts := map[string]string{
		"core.cover":     fmt.Sprintf("wire_evals=%d cones=%d reincarnations=%d", ls.coreWireEvals, ls.cones, ls.reincarnations),
		"cut.cover":      fmt.Sprintf("wire_evals=%d", ls.cutWireEvals),
		"place.global":   fmt.Sprintf("cg_iterations=%d", ls.cgIterations),
		"layout.backend": fmt.Sprintf("rows=%d", ls.rows),
		"decomp.premap":  fmt.Sprintf("subject_nodes=%d", ls.subjectNodes),
		"equiv.verify":   fmt.Sprintf("bdd_nodes_peak=%d proved=%d/%d", ls.bddPeak, ls.proved, ls.checks),
		"netlist.emit":   fmt.Sprintf("bytes=%d", ls.emitBytes),
	}
	fmt.Fprintf(log, "where the time goes (%s, traced run, self time):\n", workload)
	fmt.Fprintf(log, "  %-18s %10s %7s  %s\n", "layer", "self_s", "share", "counts")
	for _, k := range names {
		fmt.Fprintf(log, "  %-18s %10.4f %6.1f%%  %s\n", k, self[k].Seconds(), 100*self[k].Seconds()/total.Seconds(), counts[k])
	}
	fmt.Fprintf(log, "  %-18s %10.4f\n", "total", total.Seconds())
	fmt.Fprintf(log, "trace.overhead_frac %.4f\n", m["trace.overhead_frac"].Value)
	for _, s := range sizing[workload] {
		dur, st := tr.rootSelfTimes("flow:" + s.flow)
		if dur <= 0 {
			continue
		}
		got := st[s.layer].Seconds() / dur.Seconds()
		fmt.Fprintf(log, "sizing %s %s: %.1f%% of %.3f s (sized at %.0f%%)\n", s.flow, s.layer, 100*got, dur.Seconds(), 100*s.share)
	}
}
