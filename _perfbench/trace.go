package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. A nil
// tracer records nothing, so the untraced passes run the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// span is one timed call: offsets from the tracer's origin, and the index
// of the span that caused it (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its index; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the engine's
// queue and run timestamps).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that the union of its children covers.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(s.start, s.end, children[i])
	}
	return out
}

// covered returns the length of [start, end] covered by the union of the
// children's intervals, each clipped to it.
func covered(start, end time.Duration, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, start), min(k.end, end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// rootSelfTimes returns the duration of the first root span called name
// and the self times of it and its descendants, for the breakdown of one
// operation.
func (t *tracer) rootSelfTimes(name string) (time.Duration, map[string]time.Duration) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := -1
	for i, s := range t.spans {
		if s.parent < 0 && s.name == name {
			root = i
			break
		}
	}
	if root < 0 {
		return 0, nil
	}
	// Spans are appended after their parents, so one forward sweep finds
	// every descendant.
	in := make([]bool, len(t.spans))
	remap := make([]int, len(t.spans))
	var sub []span
	for i, s := range t.spans {
		if i != root && (s.parent < 0 || !in[s.parent]) {
			continue
		}
		in[i] = true
		remap[i] = len(sub)
		if i == root {
			s.parent = -1
		} else {
			s.parent = remap[s.parent]
		}
		sub = append(sub, s)
	}
	return t.spans[root].end - t.spans[root].start, selfTimes(sub)
}
