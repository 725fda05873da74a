package cache

import (
	"sync"
	"time"
	"unsafe"

	"abase/internal/clock"
)

// Refresher fetches the latest value for a key when the AU-LRU decides
// to actively renew a hot entry near expiry. It returns the fresh value
// and whether the key still exists.
type Refresher func(key string) ([]byte, bool)

// AULRU is an active-update LRU: a TTL'd cache that refreshes hot
// entries shortly before they expire, so hot keys never fall out of
// cache and stampede the data nodes (§4.4). The second hit inside an
// entry's refresh window renews it (see GetAt). It is split into
// Shards(Capacity) shards by key hash, each a CLOCK queue (clockList)
// over its share of the capacity, the LRU approximation whose hit
// moves nothing, indexed by an open-addressed table (index) whose
// slots hold what a hit reads. Safe for concurrent use.
type AULRU struct {
	shards    []auShard
	pick      picker
	ttl       time.Duration
	refreshAt time.Duration // remaining-TTL threshold that triggers refresh
	// epoch is the cache clock's reading at creation; expiries are
	// nanoseconds after it (see nanos).
	epoch     time.Time
	clk       clock.Clock
	refresher Refresher
}

// auShard is one shard: the CLOCK list, the index and the counters of
// the keys hashed to it, under one lock. The pad is at least a cache line,
// so no shard's fields share a line with the next one's, and rounds the
// shard up to whole lines, so every shard of the slice starts at the
// same offset within a line and the fields a hit writes, which lead the
// state, fall in one line rather than straddling two.
type auShard struct {
	auState
	_ [64 + (64-unsafe.Sizeof(auState{})%64)%64]byte
}

// auState is a shard's state. What a hit writes — only the lock — and
// the index it reads lead the struct, so a hit touches one of the
// shard's cache lines before it reaches its slot.
type auState struct {
	mu sync.Mutex
	index
	ll clockList

	capacity int64
	used     int64
	// gen stamps every value a caller stores (see entry.gen).
	gen uint64
	// writes counts the writes callers made to the shard's keys —
	// PutAt, UpdateAt and Delete, whether or not the key was cached. A
	// miss reports it, and the fill of what the miss read from the
	// store stands down if it moved (see FillAt).
	writes    uint64
	refreshes int64
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
}

// NewAULRU returns an active-update LRU.
func NewAULRU(cfg AUConfig) *AULRU {
	if cfg.Capacity <= 0 {
		panic("cache: AULRU capacity must be positive")
	}
	return newAULRU(cfg, Shards(cfg.Capacity))
}

// newAULRU splits cfg.Capacity over n shards, n a power of two.
func newAULRU(cfg AUConfig, n int) *AULRU {
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
		shards:    make([]auShard, n),
		pick:      newPicker(n),
		ttl:       cfg.TTL,
		refreshAt: cfg.RefreshWindow,
		epoch:     cfg.Clock.Now(),
		clk:       cfg.Clock,
		refresher: cfg.Refresher,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = cfg.Capacity / int64(n)
		s.slots = make([]slot, minSlots)
		s.ll.init()
	}
	return c
}

// nanos returns t in nanoseconds after the cache's epoch, read from
// the monotonic clock when t carries a monotonic reading as the real
// clock's do (see time.Time.Sub).
func (c *AULRU) nanos(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// Get is GetAt of a string key at the cache clock's current time.
func (c *AULRU) Get(key string) ([]byte, bool) {
	v, hit, _ := c.GetAt([]byte(key), c.clk.Now())
	return v, hit
}

// GetAt returns the cached value and whether it was present and fresh
// at now, the caller's arrival time for the request. The second hit
// inside an entry's refresh window since its value was stored triggers
// a synchronous active update through the Refresher, renewing the
// entry in place; the first only marks it due, so a key read once per
// window is not read from the origin for it. A miss returns the
// shard's write count, which a fill of the value then read from the
// store passes to FillAt.
func (c *AULRU) GetAt(key []byte, now time.Time) (v []byte, hit bool, writes uint64) {
	s, h := shardOf(c.shards, c.pick, key)
	t := c.nanos(now)
	s.mu.Lock()
	i, ok := s.find(key, h)
	if ok && t >= s.slots[i].expire {
		s.remove(s.slots[i].e) // expired: a miss
		ok = false
	}
	if !ok {
		writes = s.writes
		s.mu.Unlock()
		return nil, false, writes
	}
	sl := &s.slots[i]
	if !sl.visited {
		sl.visited = true // writes only when they change: the line stays shared
	}
	var e *entry // to refresh
	var gen uint64
	if sl.expire-t <= int64(c.refreshAt) && c.refresher != nil {
		if sl.due && !sl.e.refreshing {
			e, gen = sl.e, sl.e.gen
			e.refreshing = true
		}
		if !sl.due {
			sl.due = true
		}
	}
	if !sl.hot {
		sl.hot = true
	}
	v = sl.value
	s.mu.Unlock()

	if e != nil {
		c.refresh(s, e, gen)
	}
	return v, true, 0
}

// refresh re-fetches e's key and renews e, of generation gen, unless a
// caller stored a newer value (or deleted it) in the meantime.
func (c *AULRU) refresh(s *auShard, e *entry, gen uint64) {
	fresh, ok := c.refresher(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refreshing = false
	// A removed entry's slot holds another entry or none: entries are
	// never indexed twice.
	if s.slots[e.slot].e != e || e.gen != gen {
		return
	}
	if !ok || int64(len(e.key)+len(fresh)) > s.capacity {
		s.remove(e) // gone, or grew past any possible fit (see UpdateAt)
		return
	}
	sl := &s.slots[e.slot]
	s.used += int64(len(fresh)) - int64(len(sl.value))
	sl.value, sl.due = fresh, false
	sl.expire = c.nanos(c.clk.Now()) + int64(c.ttl)
	s.refreshes++
	for s.used > s.capacity {
		s.evictOne()
	}
}

// Put is PutAt of a string key at the cache clock's current time.
func (c *AULRU) Put(key string, value []byte) { c.PutAt([]byte(key), value, c.clk.Now()) }

// PutAt inserts or updates key with a fresh TTL counted from now, the
// caller's arrival time for the request; only a new key copies key.
// Values larger than the key's shard are not cached.
func (c *AULRU) PutAt(key, value []byte, now time.Time) {
	s, h := shardOf(c.shards, c.pick, key)
	expire := c.nanos(now) + int64(c.ttl)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	s.storeLocked(key, value, h, expire)
}

// FillAt is PutAt for a value a read fetched from the store after a
// GetAt miss that returned writes. It stores only if no write reached
// key's shard since, so the value cannot be older than one a write
// left cached or meant to drop. A fill that needs room must beat the
// entry eviction takes next, as TinyLFU admits: it stores if that
// victim has not been hit since it was stored, or if est, the key's
// access estimate, is above the victim's, which estimate reads from the
// same sketch, so what collisions add to both cancels out. A nil
// estimate admits every fill. estimate runs under the key's shard lock,
// so it must not call into the AU-LRU.
func (c *AULRU) FillAt(key, value []byte, now time.Time, writes uint64, est float64, estimate func(key string) float64) {
	s, h := shardOf(c.shards, c.pick, key)
	expire := c.nanos(now) + int64(c.ttl)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writes != writes {
		return
	}
	if estimate != nil && !s.admitsLocked(key, h, len(value), est, estimate) {
		return
	}
	s.storeLocked(key, value, h, expire)
}

// admitsLocked reports whether FillAt stores key, whose hash is h,
// with a value of n bytes: always into free room, and otherwise if the
// victim is unhit or colder than est.
// +locked:s.mu
func (s *auShard) admitsLocked(key []byte, h uint64, n int, est float64, estimate func(string) float64) bool {
	room := s.capacity - s.used
	if i, ok := s.find(key, h); ok {
		room += int64(len(key) + len(s.slots[i].value))
	}
	if int64(len(key)+n) <= room {
		return true
	}
	v := s.ll.victim(&s.index)
	return v == nil || !s.slots[v.slot].hot || est > estimate(v.key)
}

// storeLocked stores key=value, key's hash being h, expiring at expire,
// evicting what it must to fit; a value larger than the shard is not
// cached. A cached key is overwritten in place and marked visited. A
// new key is listed after the evictions, behind the hand, so its own
// store never evicts it.
// +locked:s.mu
func (s *auShard) storeLocked(key, value []byte, h uint64, expire int64) {
	size := int64(len(key) + len(value))
	if size > s.capacity {
		return
	}
	s.gen++
	i, ok := s.find(key, h)
	if ok {
		sl := &s.slots[i]
		s.used -= int64(len(key) + len(sl.value))
		sl.value, sl.expire, sl.visited, sl.hot, sl.due = value, expire, true, false, false
		sl.e.gen = s.gen
	}
	s.used += size
	for s.used > s.capacity {
		s.evictOne()
	}
	if !ok {
		e := &entry{key: string(key), gen: s.gen}
		s.add(e, key, h, value, expire)
		s.ll.pushBack(e)
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
	s, h := shardOf(c.shards, c.pick, key)
	expire := c.nanos(now) + int64(c.ttl)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	i, ok := s.find(key, h)
	if !ok {
		return false
	}
	sl := &s.slots[i]
	// A value too large to ever fit (PutAt's guard) must not enter the
	// evict loop — it would flush the whole shard and then evict
	// itself. Drop the now-stale entry instead; coherence is kept.
	if int64(len(key)+len(value)) > s.capacity {
		s.remove(sl.e)
		return true
	}
	s.used += int64(len(value)) - int64(len(sl.value))
	s.gen++
	sl.value, sl.expire, sl.visited, sl.due = value, expire, true, false
	sl.e.gen = s.gen
	for s.used > s.capacity {
		s.evictOne()
	}
	return true
}

// Delete removes key if present.
func (c *AULRU) Delete(key []byte) {
	s, h := shardOf(c.shards, c.pick, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if i, ok := s.find(key, h); ok {
		s.remove(s.slots[i].e)
	}
}

func (s *auShard) remove(e *entry) {
	s.ll.remove(e)
	s.used -= s.size(e)
	s.free(int(e.slot))
}

func (s *auShard) evictOne() {
	if v := s.ll.victim(&s.index); v != nil {
		s.remove(v)
	}
}

// each calls f on every shard under its lock.
func (c *AULRU) each(f func(*auShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries (including not-yet-swept
// expired ones).
func (c *AULRU) Len() (n int) {
	c.each(func(s *auShard) { n += s.ll.len() })
	return n
}

// Used returns the bytes currently cached.
func (c *AULRU) Used() (used int64) {
	c.each(func(s *auShard) { used += s.used })
	return used
}

// Refreshes returns how many active updates renewed an entry.
func (c *AULRU) Refreshes() (n int64) {
	c.each(func(s *auShard) { n += s.refreshes })
	return n
}

// ResetStats zeroes the refresh count.
func (c *AULRU) ResetStats() {
	c.each(func(s *auShard) { s.refreshes = 0 })
}
