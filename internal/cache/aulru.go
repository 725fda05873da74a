package cache

import (
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
	ll        lruList[auMeta]
	items     map[string]*auEntry
	ttl       time.Duration
	refreshAt time.Duration // remaining-TTL threshold that triggers refresh
	clk       clock.Clock
	refresher Refresher
	gate      RefreshGate
	// refreshing guards against duplicate concurrent refreshes per key.
	refreshing map[string]bool
	// gen stamps every value a caller stores (see auMeta.gen).
	gen uint64

	hits      int64
	misses    int64
	refreshes int64
}

// auEntry is one AU-LRU entry.
type auEntry = entry[auMeta]

type auMeta struct {
	expireAt time.Time
	// gen identifies the Put or Update that stored value. A refresh
	// reads the origin outside the lock; it installs what it read only
	// if the entry still carries the generation it started from, so a
	// write-through that lands meanwhile is never replaced by the older
	// origin value.
	gen uint64
	hot bool // accessed at least twice within the current TTL window
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
	c := &AULRU{
		capacity:   cfg.Capacity,
		items:      make(map[string]*auEntry),
		ttl:        cfg.TTL,
		refreshAt:  cfg.RefreshWindow,
		clk:        cfg.Clock,
		refresher:  cfg.Refresher,
		gate:       cfg.RefreshGate,
		refreshing: make(map[string]bool),
	}
	c.ll.init()
	return c
}

// Get is GetAt of a string key at the cache clock's current time.
func (c *AULRU) Get(key string) ([]byte, bool) { return c.GetAt([]byte(key), c.clk.Now()) }

// GetAt returns the cached value and whether it was present and fresh
// at now, the caller's arrival time for the request. Accessing a hot
// entry close to expiry triggers a synchronous active update through
// the Refresher, renewing the entry in place.
func (c *AULRU) GetAt(key []byte, now time.Time) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.items[string(key)]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	if !now.Before(e.meta.expireAt) {
		// Expired: treat as miss and drop.
		c.remove(e)
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.ll.moveToFront(e)
	c.hits++
	needRefresh := e.meta.hot &&
		e.meta.expireAt.Sub(now) <= c.refreshAt &&
		c.refresher != nil &&
		!c.refreshing[e.key] &&
		(c.gate == nil || c.gate(e.key))
	e.meta.hot = true
	val, gen, name := e.value, e.meta.gen, e.key
	if needRefresh {
		c.refreshing[name] = true
	}
	c.mu.Unlock()

	if needRefresh {
		c.refresh(name, gen)
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
	e, present := c.items[key]
	if !present || e.meta.gen != gen {
		return
	}
	if !ok {
		c.remove(e)
		return
	}
	if int64(len(key)+len(fresh)) > c.capacity {
		c.remove(e) // grew past any possible fit (see UpdateAt)
		return
	}
	c.used += int64(len(fresh)) - int64(len(e.value))
	e.value = fresh
	e.meta.expireAt = c.clk.Now().Add(c.ttl)
	c.refreshes++
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Put is PutAt of a string key at the cache clock's current time.
func (c *AULRU) Put(key string, value []byte) { c.PutAt([]byte(key), value, c.clk.Now()) }

// PutAt inserts or updates key with a fresh TTL counted from now, the
// caller's arrival time for the request; only a new key copies key.
func (c *AULRU) PutAt(key, value []byte, now time.Time) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if ok {
		c.used -= e.size()
		c.ll.moveToFront(e)
		e.value = value
	} else {
		e = &auEntry{key: string(key), value: value}
		c.items[e.key] = e
		c.ll.pushFront(e)
	}
	c.gen++
	e.meta = auMeta{expireAt: now.Add(c.ttl), gen: c.gen}
	c.used += size
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Update is UpdateAt at the cache clock's current time.
func (c *AULRU) Update(key, value []byte) bool { return c.UpdateAt(key, value, c.clk.Now()) }

// UpdateAt overwrites key's value with a fresh TTL counted from now
// only if the key is already cached, reporting whether it was.
// Hotness-gated admission uses it for write-through: an existing entry
// must stay coherent with the store, but a write alone does not earn a
// cold key a cache slot.
func (c *AULRU) UpdateAt(key, value []byte, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if !ok {
		return false
	}
	// A value too large to ever fit (PutAt's guard) must not enter the
	// evict loop — it would flush the whole cache and then evict
	// itself. Drop the now-stale entry instead; coherence is kept.
	if int64(len(key)+len(value)) > c.capacity {
		c.remove(e)
		return true
	}
	c.used += int64(len(value)) - int64(len(e.value))
	e.value = value
	e.meta.expireAt = now.Add(c.ttl)
	c.gen++
	e.meta.gen = c.gen
	c.ll.moveToFront(e)
	for c.used > c.capacity {
		c.evictOne()
	}
	return true
}

// Delete removes key if present.
func (c *AULRU) Delete(key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[string(key)]; ok {
		c.remove(e)
	}
}

func (c *AULRU) remove(e *auEntry) {
	c.ll.remove(e)
	c.used -= e.size()
	delete(c.items, e.key)
}

func (c *AULRU) evictOne() {
	if tail := c.ll.back(); tail != nil {
		c.remove(tail)
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
