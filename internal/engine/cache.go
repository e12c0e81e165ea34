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
// options (lily.FlowOptions.Normalize), and the output-artifact flags. Two
// submissions with structurally identical circuits and semantically
// identical options collide on the same key, so repeats are served from
// cache. Options Normalize
// rejects have no key. Clients correlate jobs on it (Status.Digest), so
// the format is pinned by TestRequestDigestFormat.
func requestKey(blif []byte, opt lily.FlowOptions, renderSVG, emitBLIF bool) (string, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(blif)
	// FlowOptions contains only value-typed fields, so its %+v rendering
	// is deterministic and injective over the normalized option space.
	fmt.Fprintf(h, "\x00opt=%+v\x00svg=%t\x00blif=%t", opt, renderSVG, emitBLIF)
	return hex.EncodeToString(h.Sum(nil)), nil
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
	key, err := requestKey(blif, req.Options, req.RenderSVG, req.EmitBLIF)
	if err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	return key, nil
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
