package cache

import (
	"math/bits"
	"strings"
	"sync"
)

// SALRU is a size-aware LRU cache bounded by total bytes.
// Safe for concurrent use.
type SALRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	classes  []*sizeClass
	items    map[string]*saEntry

	hits   int64
	misses int64
}

type sizeClass struct {
	ll    lruList[saMeta]
	bytes int64
	hits  int64 // decayed hit counter for the class
}

// saEntry is one SA-LRU entry; meta names its size class.
type saEntry = entry[saMeta]

type saMeta struct{ class int }

// Size classes are powers of two from 64B; class i holds entries with
// size in (64·2^(i-1), 64·2^i].
const (
	saBaseSize   = 64
	saNumClasses = 20 // up to 32 MiB
)

// NewSALRU returns a size-aware LRU holding at most capacity bytes.
// capacity must be positive.
func NewSALRU(capacity int64) *SALRU {
	if capacity <= 0 {
		panic("cache: SALRU capacity must be positive")
	}
	c := &SALRU{
		capacity: capacity,
		classes:  make([]*sizeClass, saNumClasses),
		items:    make(map[string]*saEntry),
	}
	for i := range c.classes {
		c.classes[i] = &sizeClass{}
		c.classes[i].ll.init()
	}
	return c
}

func classFor(size int) int {
	if size <= saBaseSize {
		return 0
	}
	c := bits.Len(uint(size-1)) - bits.Len(uint(saBaseSize)) + 1
	if c >= saNumClasses {
		return saNumClasses - 1
	}
	return c
}

// Get is Lookup of a string key.
func (c *SALRU) Get(key string) ([]byte, bool) { return c.Lookup([]byte(key)) }

// Lookup returns the cached value and whether it was present. The
// returned slice must not be modified.
func (c *SALRU) Lookup(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, false
	}
	cls := c.classes[e.meta.class]
	cls.ll.moveToFront(e)
	cls.hits++
	c.hits++
	return e.value, true
}

// Put is Insert of a string key.
func (c *SALRU) Put(key string, value []byte) { c.Insert([]byte(key), value) }

// Insert inserts or updates key; only a new key copies key. Values
// larger than the total capacity are not cached.
func (c *SALRU) Insert(key, value []byte) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[string(key)]
	if ok {
		c.unlink(e)
		e.value, e.meta.class = value, classFor(len(value))
	} else {
		e = &saEntry{key: string(key), value: value, meta: saMeta{class: classFor(len(value))}}
		c.items[e.key] = e
	}
	cls := c.classes[e.meta.class]
	cls.ll.pushFront(e)
	cls.bytes += size
	c.used += size
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Delete removes key if present.
func (c *SALRU) Delete(key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[string(key)]; ok {
		c.remove(e)
	}
}

// DeletePrefix removes every key that starts with prefix — one owner's
// whole share of a cache whose keys are namespaced by owner. It walks
// all entries, so it is for rare events, not request paths.
func (c *SALRU) DeletePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.remove(e)
		}
	}
}

// unlink takes e out of its class list and the byte counts, leaving it
// in the map.
func (c *SALRU) unlink(e *saEntry) {
	cls := c.classes[e.meta.class]
	cls.ll.remove(e)
	size := e.size()
	cls.bytes -= size
	c.used -= size
}

func (c *SALRU) remove(e *saEntry) {
	c.unlink(e)
	delete(c.items, e.key)
}

// evictOne removes the LRU entry of the size class with the lowest
// hits-per-byte density, preferring to keep small, hot data resident.
// Caller holds the lock.
func (c *SALRU) evictOne() {
	victim := -1
	var worst float64
	for i, cls := range c.classes {
		if cls.ll.len() == 0 {
			continue
		}
		density := float64(cls.hits+1) / float64(cls.bytes+1)
		if victim == -1 || density < worst {
			victim, worst = i, density
		}
	}
	if victim == -1 {
		return
	}
	cls := c.classes[victim]
	if tail := cls.ll.back(); tail != nil {
		c.remove(tail)
		// Decay class hits so stale popularity fades.
		cls.hits -= cls.hits / 8
	}
}

// Len returns the number of cached entries.
func (c *SALRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Used returns the bytes currently cached.
func (c *SALRU) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// HitRatio returns hits/(hits+misses) since creation, or 0 before any
// lookups.
func (c *SALRU) HitRatio() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// ResetStats zeroes the hit/miss counters.
func (c *SALRU) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = 0, 0
}
