package main

import (
	"bytes"
	"strings"
	"testing"

	"lily"
)

const testGoldens = "../testdata/golden.json"

// The traced pass calls the layers one by one; its bytes must be exactly
// what the public API writes for the same input.
func TestComposedMatchesPublicAPI(t *testing.T) {
	in, err := makeInput("C432", defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := []lily.FlowOptions{
		{Target: lily.TargetASIC},
		{Target: lily.TargetLUT4},
		{Mapper: lily.MapperMIS, Objective: lily.ObjectiveDelay},
		{Target: lily.TargetASIC, VerifyEquivalence: true, Parallelism: 1},
	}
	for _, opt := range opts {
		var pub, comp bytes.Buffer
		qp, err := runPublic(in, opt, &pub)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		ls := &layerStats{}
		qc, err := runComposed(in, opt, &comp, "C432", tr, ls)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pub.Bytes(), comp.Bytes()) {
			t.Errorf("%+v: composed BLIF differs from lily.WriteMappedBLIF", opt)
		}
		if qp != qc {
			t.Errorf("%+v: composed quality %+v, public %+v", opt, qc, qp)
		}
		if ls.emitBytes != comp.Len() || ls.subjectNodes == 0 {
			t.Errorf("%+v: counts not recorded: %+v", opt, ls)
		}
		if len(tr.selfTimes()) < 5 {
			t.Errorf("%+v: only %d layers traced", opt, len(tr.selfTimes()))
		}
	}
}

func TestBatchCountsPlantedWrongGoldenAsFailed(t *testing.T) {
	goldens, err := loadGoldens(testGoldens)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []jobSpec{
		{circuit: "C432", opt: lily.FlowOptions{}, key: "C432/area"},
		{circuit: "b9", opt: lily.FlowOptions{}, key: "b9/area"},
		{circuit: "b9", opt: lily.FlowOptions{Mapper: lily.MapperMIS}},
	}
	for _, plant := range []bool{false, true} {
		cfg := config{seed: defaultSeed, goldens: goldens}
		if plant {
			cfg.goldens = map[string]string{}
			for k, v := range goldens {
				cfg.goldens[k] = v
			}
			cfg.goldens["C432/area"] = strings.Repeat("0", 64)
		}
		b, err := setupBatch(cfg, nil, jobs)
		if err != nil {
			t.Fatal(err)
		}
		var passes []passResult
		for i := 0; i < 2; i++ {
			passes = append(passes, b.pass(nil, nil))
		}
		ls := &layerStats{}
		problems := b.verify(passes, ls)
		failed := 0
		for _, p := range passes {
			for _, o := range p.ops {
				if o.failed {
					failed++
				}
			}
		}
		want := 0
		if plant {
			want = 2 // C432 in both passes
		}
		if failed != want || (len(problems) > 0) != plant {
			t.Errorf("planted=%v: %d failed ops, want %d; problems %q", plant, failed, want, problems)
		}
		if ls.checks != 1 {
			t.Errorf("planted=%v: %d equivalence checks, want 1 (the MIS row)", plant, ls.checks)
		}
	}
}

// LUT cells are not in the big library; the post-run check must still
// prove a LUT mapping equivalent, and catch a flipped truth-table bit.
func TestCheckEquivalentReadsLUTCells(t *testing.T) {
	in, err := makeInput("C432", defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := runPublic(in, lily.FlowOptions{Target: lily.TargetLUT4}, &buf); err != nil {
		t.Fatal(err)
	}
	ls := &layerStats{}
	if err := checkEquivalent(in.net, buf.Bytes(), ls); err != nil {
		t.Fatalf("LUT4 mapping: %v", err)
	}
	if ls.checks != 1 || ls.proved != 1 {
		t.Errorf("checks %d proved %d, want 1 and 1", ls.checks, ls.proved)
	}
	// Flip the lowest truth-table bit of the first LUT cell everywhere it
	// is used.
	text := buf.String()
	i := strings.Index(text, ".gate lut")
	f := strings.Fields(text[i:])
	name := f[1]
	last := name[len(name)-1]
	flipped := name[:len(name)-1] + string("0123456789abcdef"[(strings.IndexByte("0123456789abcdef", last))^1])
	bad := strings.ReplaceAll(text, ".gate "+name+" ", ".gate "+flipped+" ")
	if err := checkEquivalent(in.net, []byte(bad), &layerStats{}); err == nil {
		t.Errorf("flipping %s to %s went unnoticed", name, flipped)
	}
}
