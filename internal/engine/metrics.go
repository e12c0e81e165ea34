package engine

// Engine-level observability: every counter the engine already tracks in
// Stats is mirrored into an obs.Registry so lilyd's /metrics endpoint
// can expose it as Prometheus text. The registry also carries the
// flow-level instruments (per-phase durations, cones, wire-cost
// evaluations) that the pipeline updates through the context installed
// in runGuarded.

import (
	"lily/internal/obs"
)

// Engine metric names.
const (
	metricJobsTotal     = "lily_jobs_total"
	metricJobsByTarget  = "lily_jobs_by_target_total"
	metricSubmitted     = "lily_jobs_submitted_total"
	metricQueueWait     = "lily_queue_wait_seconds"
	metricCacheHits     = "lily_cache_hits_total"
	metricCacheMisses   = "lily_cache_misses_total"
	metricShed          = "lily_shed_total"
	metricEvicted       = "lily_evicted_total"
	metricPanics        = "lily_panics_total"
	metricJobsRunning   = "lily_jobs_running"
	metricQueueLen      = "lily_queue_len"
	metricQueueCapacity = "lily_queue_capacity"
	metricJobsRetained  = "lily_jobs_retained"
	metricCacheEntries  = "lily_cache_entries"
)

// engineMetrics bundles the engine's registered instruments.
type engineMetrics struct {
	jobDuration  *obs.Histogram  // terminal jobs, run time
	queueWait    *obs.Histogram  // submit -> worker pickup
	jobsTotal    *obs.CounterVec // by terminal state
	jobsByTarget *obs.CounterVec // accepted jobs, by technology target
	submitted    *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	shed         *obs.Counter
	evicted      *obs.Counter
	panics       *obs.Counter
}

// registerMetrics installs the engine's instruments on r. Gauges are
// sampled at scrape time from the live engine, so they need no
// update-site plumbing.
func (e *Engine) registerMetrics(r *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		jobDuration: r.Histogram(obs.MetricJobDuration,
			"Run time of terminal jobs (queue wait excluded).", obs.DefBuckets),
		queueWait: r.Histogram(metricQueueWait,
			"Time jobs spent queued before a worker picked them up.", obs.DefBuckets),
		jobsTotal: r.CounterVec(metricJobsTotal,
			"Jobs reaching a terminal state, by state.", "state"),
		jobsByTarget: r.CounterVec(metricJobsByTarget,
			"Jobs accepted by Submit, by technology target (asic/lut4/lut6).", "target"),
		submitted:   r.Counter(metricSubmitted, "Jobs accepted by Submit."),
		cacheHits:   r.Counter(metricCacheHits, "Jobs answered from the local result cache."),
		cacheMisses: r.Counter(metricCacheMisses, "Jobs that missed the local result cache."),
		shed:        r.Counter(metricShed, "Submissions shed with ErrQueueFull (load-shed mode)."),
		evicted:     r.Counter(metricEvicted, "Terminal jobs evicted from the bounded registry."),
		panics:      r.Counter(metricPanics, "Pipeline panics contained by runGuarded."),
	}
	r.GaugeFunc(metricJobsRunning, "Jobs currently executing on workers.", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.running)
	})
	r.GaugeFunc(metricQueueLen, "Submit-queue occupancy.", func() float64 {
		return float64(len(e.queue))
	})
	r.GaugeFunc(metricQueueCapacity, "Submit-queue capacity.", func() float64 {
		return float64(cap(e.queue))
	})
	r.GaugeFunc(metricJobsRetained, "Jobs present in the registry (active + retained).", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.byID))
	})
	r.GaugeFunc(metricCacheEntries, "Entries in the result cache.", func() float64 {
		return float64(e.cache.len())
	})
	return m
}
