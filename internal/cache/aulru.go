package cache

import (
	"container/list"
	"sync"
	"time"

	"abase/internal/clock"
)

// Refresher fetches the latest value for a key when the AU-LRU decides
// to actively renew a hot entry near expiry. It returns the fresh value
// and whether the key still exists.
type Refresher func(key string) ([]byte, bool)

// RefreshGate decides whether a near-expiry entry still deserves an
// active update. A nil gate refreshes every entry that was accessed at
// least twice in its TTL window; a hotspot-detector-backed gate
// reserves origin refresh traffic for the keys that are still hot.
type RefreshGate func(key string) bool

// AULRU is an active-update LRU: a TTL'd LRU cache that refreshes hot
// entries shortly before they expire, so hot keys never fall out of
// cache and stampede the data nodes (§4.4). Safe for concurrent use.
type AULRU struct {
	mu        sync.Mutex
	capacity  int64
	used      int64
	ll        *list.List
	items     map[string]*list.Element
	ttl       time.Duration
	refreshAt time.Duration // remaining-TTL threshold that triggers refresh
	clk       clock.Clock
	refresher Refresher
	gate      RefreshGate
	// refreshing guards against duplicate concurrent refreshes per key.
	refreshing map[string]bool
	// gen stamps every value a caller stores (see auEntry.gen).
	gen uint64

	hits      int64
	misses    int64
	refreshes int64
}

type auEntry struct {
	key      string
	value    []byte
	expireAt time.Time
	hot      bool // accessed at least twice within the current TTL window
	// gen identifies the Put or Update that stored value. A refresh
	// reads the origin outside the lock; it installs what it read only
	// if the entry still carries the generation it started from, so a
	// write-through that lands meanwhile is never replaced by the older
	// origin value.
	gen uint64
}

// AUConfig configures an AULRU.
type AUConfig struct {
	// Capacity is the byte bound. Must be positive.
	Capacity int64
	// TTL is the entry lifetime. Must be positive.
	TTL time.Duration
	// RefreshWindow is how long before expiry a hot entry is refreshed.
	// Defaults to TTL/10.
	RefreshWindow time.Duration
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Refresher fetches fresh values; nil disables active update.
	Refresher Refresher
	// RefreshGate restricts active updates to keys it approves; nil
	// approves every twice-accessed entry.
	RefreshGate RefreshGate
}

// NewAULRU returns an active-update LRU.
func NewAULRU(cfg AUConfig) *AULRU {
	if cfg.Capacity <= 0 {
		panic("cache: AULRU capacity must be positive")
	}
	if cfg.TTL <= 0 {
		panic("cache: AULRU TTL must be positive")
	}
	if cfg.RefreshWindow <= 0 {
		cfg.RefreshWindow = cfg.TTL / 10
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &AULRU{
		capacity:   cfg.Capacity,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		ttl:        cfg.TTL,
		refreshAt:  cfg.RefreshWindow,
		clk:        cfg.Clock,
		refresher:  cfg.Refresher,
		gate:       cfg.RefreshGate,
		refreshing: make(map[string]bool),
	}
}

// Get is GetAt at the cache clock's current time.
func (c *AULRU) Get(key string) ([]byte, bool) { return c.GetAt(key, c.clk.Now()) }

// GetAt returns the cached value and whether it was present and fresh
// at now, the caller's arrival time for the request. Accessing a hot
// entry close to expiry triggers a synchronous active update through
// the Refresher, renewing the entry in place.
func (c *AULRU) GetAt(key string, now time.Time) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*auEntry)
	if !now.Before(e.expireAt) {
		// Expired: treat as miss and drop.
		c.removeElement(el)
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	needRefresh := e.hot &&
		e.expireAt.Sub(now) <= c.refreshAt &&
		c.refresher != nil &&
		!c.refreshing[key] &&
		(c.gate == nil || c.gate(key))
	e.hot = true
	val, gen := e.value, e.gen
	if needRefresh {
		c.refreshing[key] = true
	}
	c.mu.Unlock()

	if needRefresh {
		c.refresh(key, gen)
	}
	return val, true
}

// refresh re-fetches key and renews the entry of generation gen, unless
// a caller stored a newer value (or deleted it) in the meantime.
func (c *AULRU) refresh(key string, gen uint64) {
	fresh, ok := c.refresher(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.refreshing, key)
	el, present := c.items[key]
	if !present || el.Value.(*auEntry).gen != gen {
		return
	}
	if !ok {
		c.removeElement(el)
		return
	}
	if int64(len(key)+len(fresh)) > c.capacity {
		c.removeElement(el) // grew past any possible fit (see Update)
		return
	}
	e := el.Value.(*auEntry)
	c.used += int64(len(fresh)) - int64(len(e.value))
	e.value = fresh
	e.expireAt = c.clk.Now().Add(c.ttl)
	c.refreshes++
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Put inserts or updates key with a fresh TTL.
func (c *AULRU) Put(key string, value []byte) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
	c.gen++
	e := &auEntry{key: key, value: value, expireAt: c.clk.Now().Add(c.ttl), gen: c.gen}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.used += size
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Update overwrites key's value with a fresh TTL only if the key is
// already cached, reporting whether it was. Hotness-gated admission
// uses it for write-through: an existing entry must stay coherent with
// the store, but a write alone does not earn a cold key a cache slot.
func (c *AULRU) Update(key string, value []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	// A value too large to ever fit (Put's guard) must not enter the
	// evict loop — it would flush the whole cache and then evict
	// itself. Drop the now-stale entry instead; coherence is kept.
	if int64(len(key)+len(value)) > c.capacity {
		c.removeElement(el)
		return true
	}
	e := el.Value.(*auEntry)
	c.used += int64(len(value)) - int64(len(e.value))
	e.value = value
	e.expireAt = c.clk.Now().Add(c.ttl)
	c.gen++
	e.gen = c.gen
	c.ll.MoveToFront(el)
	for c.used > c.capacity {
		c.evictOne()
	}
	return true
}

// Delete removes key if present.
func (c *AULRU) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

func (c *AULRU) removeElement(el *list.Element) {
	e := el.Value.(*auEntry)
	c.ll.Remove(el)
	c.used -= int64(len(e.key) + len(e.value))
	delete(c.items, e.key)
}

func (c *AULRU) evictOne() {
	if tail := c.ll.Back(); tail != nil {
		c.removeElement(tail)
	}
}

// Len returns the number of cached entries (including not-yet-swept
// expired ones).
func (c *AULRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Used returns the bytes currently cached.
func (c *AULRU) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Stats returns cumulative hits, misses, and active refreshes.
func (c *AULRU) Stats() (hits, misses, refreshes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.refreshes
}

// HitRatio returns hits/(hits+misses), or 0 before any lookups.
func (c *AULRU) HitRatio() float64 {
	h, m, _ := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// ResetStats zeroes hit/miss/refresh counters.
func (c *AULRU) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.refreshes = 0, 0, 0
}
