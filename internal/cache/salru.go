package cache

import (
	"container/list"
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
	items    map[string]*list.Element

	hits   int64
	misses int64
}

type sizeClass struct {
	ll    *list.List // front = most recent
	bytes int64
	hits  int64 // decayed hit counter for the class
}

type saEntry struct {
	key   string
	value []byte
	class int
}

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
		items:    make(map[string]*list.Element),
	}
	for i := range c.classes {
		c.classes[i] = &sizeClass{ll: list.New()}
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

func entrySize(e *saEntry) int64 { return int64(len(e.key) + len(e.value)) }

// Get returns the cached value and whether it was present. The returned
// slice must not be modified.
func (c *SALRU) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*saEntry)
	cls := c.classes[e.class]
	cls.ll.MoveToFront(el)
	cls.hits++
	c.hits++
	return e.value, true
}

// Put inserts or updates key. Values larger than the total capacity are
// not cached.
func (c *SALRU) Put(key string, value []byte) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
	cls := classFor(len(value))
	e := &saEntry{key: key, value: value, class: cls}
	el := c.classes[cls].ll.PushFront(e)
	c.items[key] = el
	c.classes[cls].bytes += size
	c.used += size
	for c.used > c.capacity {
		c.evictOne()
	}
}

// Delete removes key if present.
func (c *SALRU) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

// DeletePrefix removes every key that starts with prefix — one owner's
// whole share of a cache whose keys are namespaced by owner. It walks
// all entries, so it is for rare events, not request paths.
func (c *SALRU) DeletePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.removeElement(el)
		}
	}
}

func (c *SALRU) removeElement(el *list.Element) {
	e := el.Value.(*saEntry)
	cls := c.classes[e.class]
	cls.ll.Remove(el)
	size := entrySize(e)
	cls.bytes -= size
	c.used -= size
	delete(c.items, e.key)
}

// evictOne removes the LRU entry of the size class with the lowest
// hits-per-byte density, preferring to keep small, hot data resident.
// Caller holds the lock.
func (c *SALRU) evictOne() {
	victim := -1
	var worst float64
	for i, cls := range c.classes {
		if cls.ll.Len() == 0 {
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
	if tail := cls.ll.Back(); tail != nil {
		c.removeElement(tail)
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
