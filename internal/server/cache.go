package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity LRU map from a string key to a value V: job
// hash to *Result for the result cache, WarmHash to a warm-start snapshot
// for the warm cache. Values are immutable once published, so entries are
// shared, not copied. A capacity of zero disables caching entirely (every
// Get misses, Put is a no-op), which the determinism tests use to force
// real runs, and an empty key is never cached.
type lruCache[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, promoting it to most recently used.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// over capacity.
func (c *lruCache[V]) Put(key string, val V) {
	if c.cap <= 0 || key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry[V]).key)
	}
}

// Len returns the resident entry count.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the configured capacity (0 when caching is disabled).
func (c *lruCache[V]) Cap() int { return c.cap }

// Entries returns (key, value) pairs ordered least recently used first, so
// replaying them through Put reproduces the LRU order. Used to persist the
// result cache across daemon restarts.
func (c *lruCache[V]) Entries() []cacheEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*cacheEntry[V]))
	}
	return out
}
