package cache

import (
	"math/bits"
	"strings"
	"sync"
	"unsafe"
)

// SALRU is a size-aware LRU cache bounded by total bytes, split into
// Shards(capacity) shards by key hash. Each shard runs the whole policy
// over its share of the capacity, every size class a CLOCK queue
// (clockList). Safe for concurrent use.
type SALRU struct {
	shards []saShard
	pick   picker
}

// saShard is one shard: the size classes, the index and the counters
// of the keys hashed to it, under one lock, padded as auShard is.
type saShard struct {
	saState
	_ [64 + (64-unsafe.Sizeof(saState{})%64)%64]byte
}

// saState is a shard's state, the lock and what every lookup writes or
// reads first, as in auState.
type saState struct {
	mu sync.Mutex
	index

	capacity int64
	used     int64
	classes  [saNumClasses]sizeClass
}

type sizeClass struct {
	ll    clockList
	bytes int64
	hits  int64 // decayed hit counter for the class
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
	return newSALRU(capacity, Shards(capacity))
}

// newSALRU splits capacity over n shards, n a power of two.
func newSALRU(capacity int64, n int) *SALRU {
	c := &SALRU{shards: make([]saShard, n), pick: newPicker(n)}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = capacity / int64(n)
		s.slots = make([]slot, minSlots)
		for j := range s.classes {
			s.classes[j].ll.init()
		}
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
	s, h := shardOf(c.shards, c.pick, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(key, h)
	if !ok {
		return nil, false
	}
	sl := &s.slots[i]
	if !sl.visited {
		sl.visited = true // a write only when it changes: the line stays shared
	}
	// The value's length gives the class the entry is listed in, so the
	// hit need not read the entry.
	s.classes[classFor(len(sl.value))].hits++
	return sl.value, true
}

// Put is Insert of a string key.
func (c *SALRU) Put(key string, value []byte) { c.Insert([]byte(key), value) }

// Insert inserts or updates key; only a new key copies key. Values
// larger than the key's shard are not cached. The stored entry goes to
// the back of its size class after the evictions, so its own insert
// never evicts it; an update also marks it visited.
func (c *SALRU) Insert(key, value []byte) { c.InsertIf(key, value, nil) }

// InsertIf is Insert, made only if fresh — called under the key's shard
// lock — reports true; a nil fresh always inserts. A read that fills the
// cache from the store passes a check that no write of the key has
// landed since it read: a write-through takes the same lock to store
// its value, so the read's older value cannot replace it.
func (c *SALRU) InsertIf(key, value []byte, fresh func() bool) {
	s, h := shardOf(c.shards, c.pick, key)
	size := int64(len(key) + len(value))
	if size > s.capacity {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fresh != nil && !fresh() {
		return
	}
	// The evictions move slots, so the loop holds the entry.
	var e *entry
	if i, ok := s.find(key, h); ok {
		e = s.slots[i].e
		s.unlink(e)
		s.slots[i].value, s.slots[i].visited = value, true
	}
	for s.used+size > s.capacity {
		s.evictOne()
	}
	if e == nil {
		e = &entry{key: string(key)}
		s.add(e, key, h, value, 0)
	}
	e.class = uint8(classFor(len(value)))
	s.link(e)
}

// Delete removes key if present.
func (c *SALRU) Delete(key []byte) {
	s, h := shardOf(c.shards, c.pick, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.find(key, h); ok {
		s.remove(s.slots[i].e)
	}
}

// DeletePrefix removes every key that starts with prefix — one owner's
// whole share of a cache whose keys are namespaced by owner. It walks
// all entries of every shard, so it is for rare events, not request
// paths. It walks the class lists, not the index, whose backward shift
// moves a later slot into the one just freed.
func (c *SALRU) DeletePrefix(prefix string) {
	c.each(func(s *saShard) {
		for i := range s.classes {
			l := &s.classes[i].ll
			for e := l.root.next; e != &l.root; {
				next := e.next
				if strings.HasPrefix(e.key, prefix) {
					s.remove(e)
				}
				e = next
			}
		}
	})
}

// link puts e, which is in no list, at the back of its class list and
// into the byte counts.
func (s *saShard) link(e *entry) {
	cls := &s.classes[e.class]
	cls.ll.pushBack(e)
	size := s.size(e)
	cls.bytes += size
	s.used += size
}

// unlink takes e out of its class list and the byte counts, leaving it
// in the index.
func (s *saShard) unlink(e *entry) {
	cls := &s.classes[e.class]
	cls.ll.remove(e)
	size := s.size(e)
	cls.bytes -= size
	s.used -= size
}

func (s *saShard) remove(e *entry) {
	s.unlink(e)
	s.free(int(e.slot))
}

// evictOne removes the hand's victim in the size class with the lowest
// hits-per-byte density, preferring to keep small, hot data resident.
// Caller holds the lock.
func (s *saShard) evictOne() {
	victim := -1
	var worst float64
	for i := range s.classes {
		cls := &s.classes[i]
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
	cls := &s.classes[victim]
	if v := cls.ll.victim(&s.index); v != nil {
		s.remove(v)
		// Decay class hits so stale popularity fades.
		cls.hits -= cls.hits / 8
	}
}

// each calls f on every shard under its lock.
func (c *SALRU) each(f func(*saShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries.
func (c *SALRU) Len() (n int) {
	c.each(func(s *saShard) { n += s.n })
	return n
}

// Used returns the bytes currently cached.
func (c *SALRU) Used() (used int64) {
	c.each(func(s *saShard) { used += s.used })
	return used
}
