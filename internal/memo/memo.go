// Package memo provides a content-addressed, single-flight memoization
// table. It backs the realize and run memos of a core.Caches owner and the
// ladder's per-realization tables: expensive computations keyed by a value
// that fully determines their output run at most once per distinct key,
// including under concurrency — callers that race on the same key block
// on the first computation instead of duplicating it. A table has no off
// switch; whoever wants a cold run takes a fresh table.
package memo

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes fn results by key. The zero value is not usable; call
// New. Both values and errors are cached: a deterministic failure (e.g. an
// infeasible occupancy level) is as cacheable as a success. Panics are
// not: a computation that panics poisons nobody — the entry is dropped so
// later calls recompute, and every caller already waiting on it observes
// the same panic.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// entry is one key's computation. done is closed exactly once, when the
// filling goroutine finishes (normally or by panic); val/err/panicked are
// written before the close and only read after it, so waiters need no
// further synchronization.
type entry[V any] struct {
	done     chan struct{}
	val      V
	err      error
	panicked any // non-nil iff fn panicked; the recovered value
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{entries: make(map[K]*entry[V])}
}

// Do returns the cached result for key, computing it with fn on the first
// call. Concurrent calls with the same key run fn once; the rest wait and
// share the result.
//
// If fn panics, the panic propagates to the caller that ran fn and to
// every caller waiting on the same key, and the entry is dropped — a
// later Do with the key recomputes instead of silently returning a zero
// value. fn must not call Do with the same key or Reset on the same cache
// (both would deadlock, exactly like a self-referential computation).
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &entry[V]{done: make(chan struct{})}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		<-e.done
		if e.panicked != nil {
			panic(e.panicked)
		}
		return e.val, e.err
	}
	c.misses.Add(1)
	return c.fill(key, e, fn)
}

// fill runs fn for a freshly created entry and publishes the outcome. On
// panic the entry is removed from the table (unless a Reset already
// detached it), waiters are released with the panic value recorded, and
// the panic resumes unwinding the filling goroutine.
func (c *Cache[K, V]) fill(key K, e *entry[V], fn func() (V, error)) (V, error) {
	completed := false
	defer func() {
		if completed {
			return
		}
		e.panicked = recover()
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		close(e.done)
		panic(e.panicked)
	}()
	e.val, e.err = fn()
	completed = true
	close(e.done)
	return e.val, e.err
}

// Stats reports how many Do calls were served from the cache (hits) and
// how many computed fresh entries (misses). A miss count equals the number
// of distinct keys ever computed.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct keys currently cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every entry and zeroes the counters. It waits for in-flight
// computations before returning, so the generations cannot interleave: a
// Do that joined an entry before the Reset observes the pre-Reset result
// and has done so by the time Reset returns; a Do that arrives afterwards
// recomputes. Without the wait, an in-flight computation could complete
// invisibly after the Reset and a caller could observe two distinct
// results for one key in the same process. Reset must not be called from
// inside a computation of the same cache.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	old := c.entries
	c.entries = make(map[K]*entry[V])
	c.mu.Unlock()
	for _, e := range old {
		<-e.done
	}
	c.hits.Store(0)
	c.misses.Store(0)
}
