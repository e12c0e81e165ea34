package main

import (
	"time"

	"lily"
)

// instance is a set-up workload, ready for timed passes.
type instance interface {
	// prepare readies the next pass outside the timed region.
	prepare() error
	// pass performs every operation once. tr is nil for untraced passes;
	// a traced pass records spans in tr and counts in ls.
	pass(tr *tracer, ls *layerStats) passResult
	// verify checks the outputs of every pass after the timed region,
	// marks failed operations, and returns one line per problem.
	verify(passes []passResult, ls *layerStats) []string
	// quality sums the paper's columns over the workload's flows.
	quality() quality
	close() error
}

// op is one operation of a pass: a flow, or a service request.
type op struct {
	dur    time.Duration
	failed bool
	// hit marks a request answered from the service's cache; miss one that
	// ran the pipeline. Every batch flow is a miss.
	hit, miss bool
}

type passResult struct {
	dur time.Duration
	// allocMB is the heap the pass allocated, in MiB: Go's bytes per
	// operation, a deterministic measure of the memory the pass churns.
	allocMB float64
	ops     []op
}

// workloads maps each workload's name to its set-up: one set of inputs and
// the way the benchmark drives them.
var workloads = map[string]func(cfg config, tr *tracer) (instance, error){
	"paper": func(cfg config, tr *tracer) (instance, error) {
		return setupBatch(cfg, tr, paperJobs())
	},
	"scale": func(cfg config, tr *tracer) (instance, error) {
		return setupBatch(cfg, tr, []jobSpec{
			{circuit: "gen50k", opt: lily.FlowOptions{Parallelism: 1}, inputKey: "gen/gen50k"},
			{circuit: seededCircuit, opt: lily.FlowOptions{Parallelism: 1}},
		})
	},
	"verified": func(cfg config, tr *tracer) (instance, error) {
		var jobs []jobSpec
		for _, c := range []string{"C5315", "mid10k", seededCircuit} {
			for _, t := range []lily.TechnologyTarget{lily.TargetASIC, lily.TargetLUT6} {
				j := jobSpec{circuit: c, opt: lily.FlowOptions{Target: t, VerifyEquivalence: true, Parallelism: 1}}
				j.key = goldenKey(c, j.opt)
				jobs = append(jobs, j)
			}
		}
		return setupBatch(cfg, tr, jobs)
	},
	"service": func(cfg config, tr *tracer) (instance, error) {
		return setupService(cfg, tr)
	},
}

// paperJobs lists Table 1 (every circuit, area) and Table 2 (its twelve
// circuits, delay), each through Lily and MIS, on the big ASIC library,
// then the seeded circuit in both tables.
func paperJobs() []jobSpec {
	var jobs []jobSpec
	tables := []struct {
		obj   lily.Objective
		names []string
	}{
		{lily.ObjectiveArea, lily.BenchmarkNames()},
		{lily.ObjectiveDelay, lily.Table2Names()},
		{lily.ObjectiveArea, []string{seededCircuit}},
		{lily.ObjectiveDelay, []string{seededCircuit}},
	}
	for _, t := range tables {
		for _, n := range t.names {
			for _, m := range []lily.Mapper{lily.MapperLily, lily.MapperMIS} {
				j := jobSpec{circuit: n, opt: lily.FlowOptions{Mapper: m, Objective: t.obj, Parallelism: 1}}
				if m == lily.MapperLily && n != seededCircuit {
					j.key = goldenKey(n, j.opt)
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// goldenKey spells a Lily flow's entry in testdata/golden.json:
// circuit/objective, plus /target for LUT targets.
func goldenKey(circuit string, opt lily.FlowOptions) string {
	k := circuit + "/" + opt.Objective.String()
	if opt.Target != lily.TargetASIC {
		k += "/" + opt.Target.String()
	}
	return k
}
