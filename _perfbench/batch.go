package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"time"

	"lily"
)

// jobSpec is one flow of a batch workload.
type jobSpec struct {
	circuit string
	opt     lily.FlowOptions
	// key names the golden entry pinning the mapped BLIF; empty when the
	// table pins none (MIS rows, gen50k, the seeded circuit).
	key string
	// inputKey names the golden entry pinning the input BLIF, if any.
	inputKey string
}

func (j jobSpec) label() string {
	s := j.circuit + "/" + j.opt.Objective.String()
	if j.opt.Target != lily.TargetASIC {
		s += "/" + j.opt.Target.String()
	}
	return s + "/" + j.opt.Mapper.String()
}

// batch runs a fixed list of flows one at a time, in a closed loop with a
// single caller.
type batch struct {
	cfg    config
	jobs   []jobSpec
	inputs []*input // per job (shared between jobs on one circuit)
	// outs[p][i] is job i's output in pass p; mapped keeps the first pass's
	// BLIF of each job for the equivalence checks.
	outs   [][]jobOut
	mapped [][]byte
}

type jobOut struct {
	sum [32]byte
	q   quality
	err error
}

// setupBatch generates the inputs of jobs under cfg.seed and warms the
// pipeline up with one flow of the first job's options on C432.
func setupBatch(cfg config, tr *tracer, jobs []jobSpec) (*batch, error) {
	b := &batch{cfg: cfg, jobs: jobs}
	byName := make(map[string]*input)
	for _, j := range jobs {
		in, ok := byName[j.circuit]
		if !ok {
			var err error
			if in, err = makeInput(j.circuit, cfg.seed, tr); err != nil {
				return nil, err
			}
			byName[j.circuit] = in
		}
		b.inputs = append(b.inputs, in)
	}
	warm, err := makeInput("C432", cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	var sink bytes.Buffer
	if _, err := runPublic(warm, jobs[0].opt, &sink); err != nil {
		return nil, fmt.Errorf("warm-up flow: %w", err)
	}
	return b, nil
}

func (b *batch) prepare() error { return nil }

// pass maps every job once. Untraced passes call the public API; a traced
// pass calls the layers one by one.
func (b *batch) pass(tr *tracer, ls *layerStats) passResult {
	var res passResult
	outs := make([]jobOut, len(b.jobs))
	first := b.mapped == nil
	for i, j := range b.jobs {
		var buf bytes.Buffer
		start := time.Now()
		var o jobOut
		if tr == nil {
			o.q, o.err = runPublic(b.inputs[i], j.opt, &buf)
		} else {
			o.q, o.err = runComposed(b.inputs[i], j.opt, &buf, j.label(), tr, ls)
		}
		d := time.Since(start)
		res.dur += d
		o.sum = digest(buf.Bytes())
		outs[i] = o
		if first {
			b.mapped = append(b.mapped, buf.Bytes())
		}
		res.ops = append(res.ops, op{dur: d, miss: true})
	}
	b.outs = append(b.outs, outs)
	return res
}

// verify checks every output after the timed region: against its golden
// hash where the table pins one, otherwise by an equivalence check of the first
// pass's output followed by byte equality of every later pass. An error,
// a mismatch, or a changed quality column fails the operation.
func (b *batch) verify(passes []passResult, ls *layerStats) []string {
	var problems []string
	for i, j := range b.jobs {
		want, pinned := b.cfg.golden(j.key)
		var refErr error
		if in := b.inputs[i]; j.inputKey != "" {
			if w, ok := b.cfg.golden(j.inputKey); ok && w != digest(in.blif) {
				refErr = fmt.Errorf("input BLIF hash %s differs from golden %s", hexSum(digest(in.blif)), hexSum(w))
			}
		}
		if refErr == nil && !pinned {
			want = b.outs[0][i].sum
			refErr = checkEquivalent(b.inputs[i].net, b.mapped[i], ls)
		}
		for p := range b.outs {
			o := b.outs[p][i]
			var err error
			switch {
			case o.err != nil:
				err = o.err
			case refErr != nil:
				err = refErr
			case o.sum != want:
				err = fmt.Errorf("mapped BLIF hash %s, want %s", hexSum(o.sum), hexSum(want))
			case o.q != b.outs[0][i].q:
				err = fmt.Errorf("quality %+v differs from first pass %+v", o.q, b.outs[0][i].q)
			}
			if err != nil {
				passes[p].ops[i].failed = true
				problems = append(problems, fmt.Sprintf("pass %d %s: %v", p, j.label(), err))
			}
		}
	}
	return problems
}

func (b *batch) quality() quality {
	var q quality
	for _, o := range b.outs[0] {
		q.add(o.q)
	}
	return q
}

func (b *batch) close() error { return nil }

func hexSum(s [32]byte) string { return hex.EncodeToString(s[:8]) }
