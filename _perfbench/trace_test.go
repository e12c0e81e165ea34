package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		// Overlapping children count once: [10,50].
		{name: "a", parent: 0, start: ms(10), end: ms(30)},
		{name: "b", parent: 0, start: ms(20), end: ms(50)},
		{name: "a", parent: 0, start: ms(60), end: ms(70)},
		// A child running past its parent counts only inside it: [90,100].
		{name: "c", parent: 0, start: ms(90), end: ms(120)},
		// A grandchild is charged to its own parent, not the root.
		{name: "d", parent: 2, start: ms(25), end: ms(45)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": ms(100 - 40 - 10 - 10),
		"a":    ms(20 + 10),
		"b":    ms(30 - 20),
		"c":    ms(30),
		"d":    ms(20),
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self[%s] = %v, want %v", k, got[k], w)
		}
	}
}

func TestRootSelfTimesKeepsOneOperation(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "flow:x", parent: -1, start: 0, end: 10},
		{name: "core.cover", parent: 0, start: 1, end: 7},
		{name: "flow:y", parent: -1, start: 10, end: 30},
		{name: "core.cover", parent: 2, start: 11, end: 29},
	}
	dur, self := tr.rootSelfTimes("flow:x")
	if dur != 10 || self["core.cover"] != 6 || self["flow:x"] != 4 || len(self) != 2 {
		t.Errorf("rootSelfTimes(flow:x) = %v, %v", dur, self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if err := tr.do("y", id, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.selfTimes()); n != 0 {
		t.Errorf("nil tracer reported %d layers", n)
	}
}
