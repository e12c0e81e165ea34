package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"lily"
)

// requestKey derives the content-addressed cache key of a job: the SHA-256
// of the circuit's canonical BLIF serialization, the normalized flow
// options, and the output-artifact flags. Two submissions with structurally
// identical circuits and semantically identical options collide on the same
// key, so repeats are served from cache and identical in-flight runs are
// deduped. Clients correlate jobs on it (Status.Digest), so the format is
// pinned by TestRequestDigestFormat.
func requestKey(blif []byte, opt lily.FlowOptions, renderSVG, emitBLIF bool) string {
	h := sha256.New()
	h.Write(blif)
	// FlowOptions contains only value-typed fields, so its %+v rendering
	// is deterministic and injective over the normalized option space.
	fmt.Fprintf(h, "\x00opt=%+v\x00svg=%t\x00blif=%t", normalizeOptions(opt), renderSVG, emitBLIF)
	return hex.EncodeToString(h.Sum(nil))
}

// RequestDigest computes the content-addressed digest of a request without
// submitting it: the cache key a job for req would carry (Job.Key,
// Status.Digest). A client can compute it ahead of time to recognise
// repeats of a request it has already submitted.
func RequestDigest(req Request) (string, error) {
	_, blif, err := resolveCircuit(req)
	if err != nil {
		return "", err
	}
	return requestKey(blif, req.Options, req.RenderSVG, req.EmitBLIF), nil
}

// normalizeOptions canonicalizes option settings that the pipeline treats
// as equivalent, so the cache does not fragment across spellings of the
// same flow.
func normalizeOptions(opt lily.FlowOptions) lily.FlowOptions {
	if opt.WireWeight == 0 {
		opt.WireWeight = 1.0 // runPipeline's default
	}
	if !opt.FanoutOptimize {
		opt.MaxFanout = 0 // ignored unless fanout optimization is on
	} else if opt.MaxFanout < 2 {
		opt.MaxFanout = 6 // fanout.DefaultOptions default
	}
	if opt.Mapper != lily.MapperLily {
		// Lily-only knobs are ignored by the MIS flow.
		opt.AutoTune = false
		opt.WireWeight = 1.0
		opt.Update = 0
		opt.Estimator = 0
		opt.DisableConeOrdering = false
		opt.ReplaceEvery = 0
		opt.NaivePads = false
		opt.TwoPassDelay = false
	}
	if opt.Mapper != lily.MapperMIS {
		opt.TreeMode = false // MIS-only knob
	}
	// Parallelism is a throughput knob: the wave-parallel mapper and the
	// placement reduction trees are bit-identical at every setting
	// (DESIGN.md §13), so it must not fragment the cache.
	opt.Parallelism = 0
	// MultilevelThreshold is semantically significant (placements differ
	// across thresholds), but every negative value spells "disabled".
	if opt.MultilevelThreshold < 0 {
		opt.MultilevelThreshold = -1
	}
	return opt
}

// lruCache is a size-bounded LRU map from request key to Outcome.
// A nil *lruCache is a valid always-miss cache.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	out *Outcome
}

// newLRU returns an LRU cache holding up to capacity outcomes, or nil
// (cache disabled) when capacity <= 0.
func newLRU(capacity int) *lruCache {
	if capacity <= 0 {
		return nil
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) get(key string) (*Outcome, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).out, true
}

func (c *lruCache) add(key string, out *Outcome) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).out = out
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, out: out})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
