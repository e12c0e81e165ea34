package engine

// Terminal-job retention. The engine keeps finished jobs in its registry
// so clients can fetch status/results after the fact, but boundedly: at
// most Config.MaxRetainedJobs terminal jobs are retained (oldest-finished
// evicted first), and jobs older than Config.RetainFor are garbage
// collected by a background goroutine that Shutdown stops. Evicted IDs
// remain recognizable through Forgotten, so the HTTP layer can answer
// 410 Gone instead of 404 for IDs it once issued.

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DefaultMaxRetainedJobs bounds the registry when Config.MaxRetainedJobs
// is zero.
const DefaultMaxRetainedJobs = 1024

// retainedEntry is one terminal job in the retention queue, stamped with
// its retirement time so age-based GC never needs the job's own lock.
type retainedEntry struct {
	j  *Job
	at time.Time
}

// retireLocked enrolls a freshly terminal job in the retention queue and
// evicts oldest-first past the retention bound; requires e.mu.
func (e *Engine) retireLocked(j *Job, now time.Time) {
	if _, ok := e.byID[j.id]; !ok {
		return // already dropped (abandoned submission)
	}
	e.retired.PushBack(retainedEntry{j: j, at: now})
	e.evictExcessLocked()
}

// evictExcessLocked drops the oldest retained terminal jobs until at most
// cfg.MaxRetainedJobs remain (negative = unlimited); requires e.mu.
func (e *Engine) evictExcessLocked() {
	max := e.cfg.MaxRetainedJobs
	if max < 0 {
		return
	}
	for e.retired.Len() > max {
		e.evictLocked(e.retired.Front())
	}
}

// evictLocked drops the retained terminal job at el from both the
// retention queue and the registry map, and counts it; requires e.mu.
func (e *Engine) evictLocked(el *list.Element) {
	delete(e.byID, e.retired.Remove(el).(retainedEntry).j.id)
	e.stats.Evicted++
	e.metrics.evicted.Inc()
}

// gcRetained drops retained terminal jobs that finished before cutoff.
// It is called periodically by the retention goroutine (and from tests).
func (e *Engine) gcRetained(cutoff time.Time) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for el := e.retired.Front(); el != nil; el = e.retired.Front() {
		if !el.Value.(retainedEntry).at.Before(cutoff) {
			break // queue is ordered by retirement time
		}
		e.evictLocked(el)
		n++
	}
	return n
}

// gcLoop ticks age-based retention GC until Shutdown closes e.stop.
func (e *Engine) gcLoop(interval time.Duration) {
	defer e.workerWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.gcRetained(time.Now().Add(-e.cfg.RetainFor))
		case <-e.stop:
			return
		}
	}
}

// gcInterval derives the retention-GC tick period from the retention
// window: frequent enough that expiry is timely, bounded so an hours-long
// window doesn't mean an hours-long wait for the first sweep.
func gcInterval(retainFor time.Duration) time.Duration {
	iv := retainFor / 4
	if iv < 5*time.Millisecond {
		iv = 5 * time.Millisecond
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// Forgotten reports whether id names a job this engine once issued that
// is no longer retained (evicted, aged out, or abandoned at submission).
// It is the 404-vs-410 distinction for the HTTP layer and needs no
// per-ID tombstone state: IDs are dense ("job-%06d" over a monotone
// sequence), so any well-formed ID at or below the current sequence that
// is absent from the registry must have been dropped.
func (e *Engine) Forgotten(id string) bool {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil || fmt.Sprintf("job-%06d", seq) != id {
		return false // not an ID this engine would have issued
	}
	if seq == 0 || seq > e.seq.Load() {
		return false // never issued (yet)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, present := e.byID[id]
	return !present
}
