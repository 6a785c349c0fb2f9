// Package lru is the repository's one in-memory cache: a mutex-guarded,
// cost-bounded LRU with in-flight coalescing. It backs the baseline
// cache (internal/simcache), the collective-schedule memo
// (internal/collectives) and the advisor's recommendation cache
// (internal/advise).
//
// Contracts every user relies on:
//   - the most recently inserted entry is always retained, even when it
//     alone exceeds the bound;
//   - builder errors are never cached, so a later lookup retries;
//   - concurrent lookups of an absent key are coalesced: one goroutine
//     builds, the rest wait and report a hit with the builder's value
//     or error;
//   - ctx bounds only a coalesced wait, never the build;
//   - a panicking build never wedges its waiters: they receive
//     ErrBuildPanicked and the panic continues in the building
//     goroutine.
//
// The package holds no clock and draws no randomness: it sits on the
// deterministic engine path through the schedule memo.
package lru

import (
	"context"
	"errors"
	"sync"
)

// ErrBuildPanicked is the error coalesced waiters receive when the
// build they waited on panicked.
var ErrBuildPanicked = errors.New("lru: build panicked")

// Stats is a point-in-time snapshot of cache effectiveness. It is the
// one stats shape every cache in the repository reports on /metrics.
type Stats struct {
	// Entries is the number of resident entries.
	Entries int `json:"entries"`
	// SizeBytes is the summed cost of all entries.
	SizeBytes int64 `json:"size_bytes"`
	// CapBytes is the configured bound.
	CapBytes int64 `json:"cap_bytes"`
	// Hits counts lookups served from a resident entry.
	Hits uint64 `json:"hits"`
	// Coalesced counts lookups that waited on a concurrent build of
	// the same key instead of building their own.
	Coalesced uint64 `json:"coalesced"`
	// Misses counts lookups that ran the builder.
	Misses uint64 `json:"misses"`
	// Evictions counts entries discarded to respect CapBytes.
	Evictions uint64 `json:"evictions"`
	// HitRatio is (Hits+Coalesced) / (Hits+Coalesced+Misses), 0 when
	// no lookups have happened.
	HitRatio float64 `json:"hit_ratio"`
}

// Cache is a cost-bounded LRU from K to V. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	cost func(V) int64

	mu       sync.Mutex
	capacity int64
	size     int64
	items    map[K]*node[K, V]
	root     node[K, V] // sentinel: root.next is the most recently used
	inflight map[K]*flight[V]

	hits      uint64
	coalesced uint64
	misses    uint64
	evictions uint64
}

// node is one resident entry in the recency ring.
type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
	cost       int64
}

// flight is one in-progress build, shared by every waiter for its key.
// val and err are written before done closes and read only after.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity total cost, where cost
// prices one value. The most recent entry is kept even when it alone
// exceeds capacity.
func New[K comparable, V any](capacity int64, cost func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{
		cost:     cost,
		capacity: capacity,
		items:    map[K]*node[K, V]{},
		inflight: map[K]*flight[V]{},
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// GetOrBuild returns the value for key, running build and inserting its
// result on a miss. hit reports whether the value was resident or under
// construction by another goroutine. err is the builder's error (never
// cached) or, for a coalesced waiter, ctx.Err() if ctx ends first.
func (c *Cache[K, V]) GetOrBuild(ctx context.Context, key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if n, ok := c.items[key]; ok {
		c.unlink(n)
		c.pushFront(n)
		c.hits++
		v = n.val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	// err stays ErrBuildPanicked unless build returns.
	f := &flight[V]{done: make(chan struct{}), err: ErrBuildPanicked}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	defer c.land(key, f)
	f.val, f.err = build()
	return f.val, false, f.err
}

// land publishes a finished flight: a successful value is inserted,
// then the waiters are released. It runs deferred, so a panicking build
// releases them too.
func (c *Cache[K, V]) land(key K, f *flight[V]) {
	var cost int64
	if f.err == nil {
		cost = c.cost(f.val)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		n := &node[K, V]{key: key, val: f.val, cost: cost}
		c.items[key] = n
		c.pushFront(n)
		c.size += cost
		for c.size > c.capacity && len(c.items) > 1 {
			old := c.root.prev
			c.unlink(old)
			delete(c.items, old.key)
			c.size -= old.cost
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// pushFront links n as the most recently used entry. c.mu must be held.
func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

// unlink removes n from the recency ring. c.mu must be held.
func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Entries:   len(c.items),
		SizeBytes: c.size,
		CapBytes:  c.capacity,
		Hits:      c.hits,
		Coalesced: c.coalesced,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	if total := s.Hits + s.Coalesced + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}
