package cache

// This file states the caches' policy as a plain reference model — no
// lock, container/list queues, map[string]*list.Element, string keys —
// and fuzzes the sharded intrusive-list caches against one model per
// shard, each key sent to the model of the shard the cache's own hash
// picks: every call must return what the model returns and leave the
// same entries, in the same order, with the same visited bits and
// counters, shard by shard.
//
// The policy is CLOCK with second-chance eviction. A queue holds its
// entries in insertion order, the front where the hand points. A hit
// sets the entry's visited bit and moves nothing. An eviction clears
// the bit of each visited entry at the front and moves it to the back,
// then evicts the first unvisited one. A new entry joins the back after
// the evictions its store makes room with. An overwrite sets the bit;
// the AU-LRU keeps the entry in place, the SA-LRU moves it to the back
// of its (possibly new) size class.

import (
	"container/list"
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"time"

	"abase/internal/clock"
)

// --- reference SA-LRU ---

type modelSALRU struct {
	capacity int64
	used     int64
	classes  []*modelClass
	items    map[string]*list.Element
}

type modelClass struct {
	ll    *list.List // front = the hand, back = newest
	bytes int64
	hits  int64
}

type modelSAEntry struct {
	key     string
	value   []byte
	class   int
	visited bool
}

func newModelSALRU(capacity int64) *modelSALRU {
	c := &modelSALRU{
		capacity: capacity,
		classes:  make([]*modelClass, saNumClasses),
		items:    make(map[string]*list.Element),
	}
	for i := range c.classes {
		c.classes[i] = &modelClass{ll: list.New()}
	}
	return c
}

func modelClassFor(size int) int {
	if size <= saBaseSize {
		return 0
	}
	c := bits.Len(uint(size-1)) - bits.Len(uint(saBaseSize)) + 1
	if c >= saNumClasses {
		return saNumClasses - 1
	}
	return c
}

func (c *modelSALRU) Get(key string) ([]byte, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*modelSAEntry)
	e.visited = true
	c.classes[e.class].hits++
	return e.value, true
}

func (c *modelSALRU) Put(key string, value []byte) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	el, updated := c.items[key]
	if updated {
		c.removeElement(el)
	}
	for c.used+size > c.capacity {
		c.evictOne()
	}
	cls := modelClassFor(len(value))
	e := &modelSAEntry{key: key, value: value, class: cls, visited: updated}
	c.items[key] = c.classes[cls].ll.PushBack(e)
	c.classes[cls].bytes += size
	c.used += size
}

func (c *modelSALRU) Delete(key string) {
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

func (c *modelSALRU) DeletePrefix(prefix string) {
	for key, el := range c.items {
		if strings.HasPrefix(key, prefix) {
			c.removeElement(el)
		}
	}
}

func (c *modelSALRU) removeElement(el *list.Element) {
	e := el.Value.(*modelSAEntry)
	cls := c.classes[e.class]
	cls.ll.Remove(el)
	size := int64(len(e.key) + len(e.value))
	cls.bytes -= size
	c.used -= size
	delete(c.items, e.key)
}

func (c *modelSALRU) evictOne() {
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
	c.removeElement(handVictim(cls.ll, func(el *list.Element) *bool { return &el.Value.(*modelSAEntry).visited }))
	cls.hits -= cls.hits / 8
}

// handVictim runs second chance over ll: while the front entry is
// visited, clear its bit and move it to the back. It returns the front,
// the first unvisited entry. ll must not be empty.
func handVictim(ll *list.List, visited func(*list.Element) *bool) *list.Element {
	for el := ll.Front(); *visited(el); el = ll.Front() {
		*visited(el) = false
		ll.MoveToBack(el)
	}
	return ll.Front()
}

// --- reference AU-LRU ---

type modelAULRU struct {
	capacity   int64
	used       int64
	ll         *list.List
	items      map[string]*list.Element
	ttl        time.Duration
	refreshAt  time.Duration
	clk        clock.Clock
	refresher  Refresher
	refreshing map[string]bool
	gen        uint64
	writes     uint64
	hits       uint64
	refreshes  int64
}

type modelAUEntry struct {
	key      string
	value    []byte
	expireAt time.Time
	hot      bool
	// due: hit inside the refresh window since the value was stored.
	due     bool
	gen     uint64
	visited bool
}

func newModelAULRU(cfg AUConfig) *modelAULRU {
	if cfg.RefreshWindow <= 0 {
		cfg.RefreshWindow = cfg.TTL / 10
	}
	return &modelAULRU{
		capacity:   cfg.Capacity,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		ttl:        cfg.TTL,
		refreshAt:  cfg.RefreshWindow,
		clk:        cfg.Clock,
		refresher:  cfg.Refresher,
		refreshing: make(map[string]bool),
	}
}

// GetAt returns the write count on a miss and the hit count on a hit,
// as AULRU.GetAt does.
func (c *modelAULRU) GetAt(key string, now time.Time) ([]byte, bool, uint64) {
	el, ok := c.items[key]
	if !ok {
		return nil, false, c.writes
	}
	e := el.Value.(*modelAUEntry)
	if !now.Before(e.expireAt) {
		c.removeElement(el)
		return nil, false, c.writes
	}
	e.visited = true
	inWindow := e.expireAt.Sub(now) <= c.refreshAt && c.refresher != nil
	needRefresh := inWindow && e.due && !c.refreshing[key]
	e.due = e.due || inWindow
	e.hot = true
	val, gen := e.value, e.gen
	if needRefresh {
		c.refreshing[key] = true
		c.refresh(key, gen)
	}
	c.hits++
	return val, true, c.hits
}

func (c *modelAULRU) refresh(key string, gen uint64) {
	fresh, ok := c.refresher(key)
	delete(c.refreshing, key)
	el, present := c.items[key]
	if !present || el.Value.(*modelAUEntry).gen != gen {
		return
	}
	if !ok {
		c.removeElement(el)
		return
	}
	if int64(len(key)+len(fresh)) > c.capacity {
		c.removeElement(el)
		return
	}
	e := el.Value.(*modelAUEntry)
	c.used += int64(len(fresh)) - int64(len(e.value))
	e.value, e.due = fresh, false
	e.expireAt = c.clk.Now().Add(c.ttl)
	c.refreshes++
	for c.used > c.capacity {
		c.evictOne()
	}
}

func (c *modelAULRU) PutAt(key string, value []byte, now time.Time) {
	c.writes++
	c.store(key, value, now)
}

// FillAt stores only if no write came since the miss that returned
// writes and, with an estimate, only into free room or over a victim
// that is unhit or whose estimate is below est.
func (c *modelAULRU) FillAt(key string, value []byte, now time.Time, writes uint64, est float64, estimate func(string) float64) {
	if writes != c.writes {
		return
	}
	room := c.capacity - c.used
	if el, ok := c.items[key]; ok {
		room += int64(len(key) + len(el.Value.(*modelAUEntry).value))
	}
	if estimate != nil && int64(len(key)+len(value)) > room && c.ll.Len() > 0 {
		v := handVictim(c.ll, func(el *list.Element) *bool { return &el.Value.(*modelAUEntry).visited }).Value.(*modelAUEntry)
		if v.hot && est <= estimate(v.key) {
			return
		}
	}
	c.store(key, value, now)
}

func (c *modelAULRU) store(key string, value []byte, now time.Time) {
	size := int64(len(key) + len(value))
	if size > c.capacity {
		return
	}
	c.gen++
	if el, ok := c.items[key]; ok {
		e := el.Value.(*modelAUEntry)
		c.used += size - int64(len(key)+len(e.value))
		*e = modelAUEntry{key: key, value: value, expireAt: now.Add(c.ttl), gen: c.gen, visited: true}
		for c.used > c.capacity {
			c.evictOne()
		}
		return
	}
	for c.used+size > c.capacity {
		c.evictOne()
	}
	e := &modelAUEntry{key: key, value: value, expireAt: now.Add(c.ttl), gen: c.gen}
	c.items[key] = c.ll.PushBack(e)
	c.used += size
}

func (c *modelAULRU) UpdateAt(key string, value []byte, now time.Time) bool {
	c.writes++
	el, ok := c.items[key]
	if !ok {
		return false
	}
	if int64(len(key)+len(value)) > c.capacity {
		c.removeElement(el)
		return true
	}
	e := el.Value.(*modelAUEntry)
	c.used += int64(len(value)) - int64(len(e.value))
	e.value, e.due = value, false
	e.expireAt = now.Add(c.ttl)
	c.gen++
	e.gen = c.gen
	e.visited = true
	for c.used > c.capacity {
		c.evictOne()
	}
	return true
}

func (c *modelAULRU) Delete(key string) {
	c.writes++
	if el, ok := c.items[key]; ok {
		c.removeElement(el)
	}
}

func (c *modelAULRU) removeElement(el *list.Element) {
	e := el.Value.(*modelAUEntry)
	c.ll.Remove(el)
	c.used -= int64(len(e.key) + len(e.value))
	delete(c.items, e.key)
}

func (c *modelAULRU) evictOne() {
	c.removeElement(handVictim(c.ll, func(el *list.Element) *bool { return &el.Value.(*modelAUEntry).visited }))
}

// --- differential fuzzing ---

// fuzzOps reads a fuzz input as a stream of small numbers.
type fuzzOps struct{ b []byte }

func (f *fuzzOps) more() bool { return len(f.b) > 0 }

// next returns the next byte modulo n (0 once the input is spent).
func (f *fuzzOps) next(n int) int {
	if len(f.b) == 0 {
		return 0
	}
	v := int(f.b[0]) % n
	f.b = f.b[1:]
	return v
}

// key picks one of a few owners' keys, so prefixes overlap ("p1" is a
// prefix of "p10") the way node cache keys' partition names do.
func (f *fuzzOps) key() string {
	owners := []string{"p1", "p10", "p2"}
	return fmt.Sprintf("%s\x00k%d", owners[f.next(len(owners))], f.next(6))
}

// value picks a length across the first size classes, now and then one
// past the capacity of the caches below.
func (f *fuzzOps) value(tag int) []byte {
	sizes := []int{0, 1, 30, 64, 65, 100, 130, 300, 600, 1500}
	v := make([]byte, sizes[f.next(len(sizes))])
	for i := range v {
		v[i] = byte('a' + tag%26)
	}
	return v
}

func seedCacheFuzz(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 9, 9})
	f.Add([]byte("an AU-LRU and an SA-LRU differential seed with some length to it"))
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i * 37)
	}
	f.Add(seq)
	// To the SA-LRU: store every key at 300 B, which overflows any shard
	// holding four of them, hit every key, then store them all again, so
	// the hand sweeps past entries the hits visited.
	var sweep []byte
	for _, op := range [][]byte{{2, 7, 0}, {0}, {2, 7, 1}} {
		for k := 0; k < 18; k++ {
			sweep = append(append(sweep, byte(k/6), byte(k%6)), op...)
		}
	}
	f.Add(sweep)
	// To the AU-LRU, with victim estimates: store half the keys at
	// 300 B, hit each, then fill the other half at 300 B with estimates
	// 0, 1 and 2, so fills that need room meet victims hit since they
	// were stored, colder, as hot and hotter than the fill.
	hot := []byte{1}
	for _, op := range [][]byte{{2, 7, 0}, {0, 0}} {
		for k := 0; k < 9; k++ {
			hot = append(append(hot, 0, byte(k/3), byte(k%3)), op...)
		}
	}
	for est := byte(0); est < 3; est++ {
		for k := 0; k < 9; k++ {
			hot = append(hot, 0, byte(k/3), byte(3+k%3), 9, 7, 0, est)
		}
	}
	f.Add(hot)
	// To the AU-LRU's active update: store three keys and hit each,
	// move 52 s into their 60 s TTL, inside the refresh window, and hit
	// them once, twice and three times: only a second hit there renews.
	due := []byte{0}
	for k := byte(0); k < 3; k++ {
		due = append(due, 0, 0, k, 2, 1, 0, 0, 0, k, 0, 0)
	}
	due = append(due, 0, 0, 0, 5, 39, 0, 0, 0, 5, 13)
	for k := byte(0); k < 3; k++ {
		for range k + 1 {
			due = append(due, 0, 0, k, 0, 0)
		}
	}
	f.Add(due)
}

// fuzzShards is how many shards the fuzzed caches have, each the size
// of one model.
const fuzzShards = 4

// saSnapshot lists s's entries class by class from the hand on, with
// the values and visited bits their slots hold, and the class counters.
func saSnapshot(s *saShard) string {
	var b strings.Builder
	for i := range s.classes {
		cls := &s.classes[i]
		fmt.Fprintf(&b, "[%d %d %d]", i, cls.bytes, cls.hits)
		for e := cls.ll.root.next; e != &cls.ll.root; e = e.next {
			sl := &s.slots[e.slot]
			fmt.Fprintf(&b, " %q=%q/%v", e.key, sl.value, sl.visited)
		}
	}
	fmt.Fprintf(&b, " len=%d used=%d", s.n, s.used)
	return b.String()
}

func modelSASnapshot(c *modelSALRU) string {
	var b strings.Builder
	for i, cls := range c.classes {
		fmt.Fprintf(&b, "[%d %d %d]", i, cls.bytes, cls.hits)
		for el := cls.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*modelSAEntry)
			fmt.Fprintf(&b, " %q=%q/%v", e.key, e.value, e.visited)
		}
	}
	fmt.Fprintf(&b, " len=%d used=%d", len(c.items), c.used)
	return b.String()
}

func FuzzSALRUModel(f *testing.F) {
	seedCacheFuzz(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data}
		c := newSALRU(fuzzShards*1024, fuzzShards)
		var models [fuzzShards]*modelSALRU
		for i := range models {
			models[i] = newModelSALRU(1024)
		}
		for step := 0; ops.more(); step++ {
			var desc string
			k := ops.key()
			m := models[c.pick.hash([]byte(k))&c.pick.mask]
			switch ops.next(5) {
			case 0, 1:
				desc = "Get " + k
				v, ok := c.Get(k)
				mv, mok := m.Get(k)
				if ok != mok || string(v) != string(mv) {
					t.Fatalf("step %d %s = %q %v, model %q %v", step, desc, v, ok, mv, mok)
				}
			case 2:
				v := ops.value(step)
				desc = fmt.Sprintf("Put %s (%d B)", k, len(v))
				if ops.next(2) == 0 {
					c.Put(k, v)
				} else {
					c.Insert([]byte(k), v)
				}
				m.Put(k, v)
			case 3:
				desc = "Delete " + k
				c.Delete([]byte(k))
				m.Delete(k)
			case 4:
				p := k[:strings.IndexByte(k, 0)+ops.next(2)]
				desc = fmt.Sprintf("DeletePrefix %q", p)
				c.DeletePrefix(p)
				for _, m := range models {
					m.DeletePrefix(p)
				}
			}
			var n int
			var used int64
			for i, m := range models {
				if got, want := saSnapshot(&c.shards[i]), modelSASnapshot(m); got != want {
					t.Fatalf("after step %d %s, shard %d:\n got %s\nwant %s", step, desc, i, got, want)
				}
				n, used = n+len(m.items), used+m.used
			}
			if c.Len() != n || c.Used() != used {
				t.Fatalf("after step %d %s: Len %d Used %d, models %d %d", step, desc, c.Len(), c.Used(), n, used)
			}
		}
	})
}

// refreshOrigin is a deterministic origin for one side of the AU-LRU
// differential: its n-th fetch answers from n and the key, and every
// fifth says the key is gone. Now and then the value outgrows the cache.
type refreshOrigin struct{ n int }

func (o *refreshOrigin) fetch(key string) ([]byte, bool) {
	o.n++
	if o.n%5 == 0 {
		return nil, false
	}
	if o.n%7 == 0 {
		return make([]byte, 2048), true
	}
	return []byte(fmt.Sprintf("r%d-%s", o.n, key)), true
}

func auSnapshot(c *AULRU, s *auShard) string {
	var b strings.Builder
	refreshing := 0
	for e := s.ll.root.next; e != &s.ll.root; e = e.next {
		sl := &s.slots[e.slot]
		expireAt := c.epoch.Add(time.Duration(sl.expire))
		fmt.Fprintf(&b, "%q=%q@%d/%v/%v/%d/%v ", e.key, sl.value, expireAt.UnixNano(), sl.hot, sl.due, e.gen, sl.visited)
		if e.refreshing {
			refreshing++
		}
	}
	fmt.Fprintf(&b, "len=%d used=%d refreshes=%d refreshing=%d writes=%d", s.ll.len(), s.used, s.refreshes, refreshing, s.writes)
	return b.String()
}

func modelAUSnapshot(c *modelAULRU) string {
	var b strings.Builder
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*modelAUEntry)
		fmt.Fprintf(&b, "%q=%q@%d/%v/%v/%d/%v ", e.key, e.value, e.expireAt.UnixNano(), e.hot, e.due, e.gen, e.visited)
	}
	fmt.Fprintf(&b, "len=%d used=%d refreshes=%d refreshing=%d writes=%d", len(c.items), c.used, c.refreshes, len(c.refreshing), c.writes)
	return b.String()
}

func FuzzAULRUModel(f *testing.F) {
	seedCacheFuzz(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data}
		sim := clock.NewSim(time.Unix(1000, 0))
		// A victim's estimate is a function of its key and of a shift
		// the fuzz input moves; both sides ask it at the same points
		// when they agree. Without one, every fill is admitted.
		shift := 0
		var estimate func(string) float64
		if ops.next(2) == 1 {
			estimate = func(k string) float64 { return float64((len(k) + shift) % 4) }
		}
		var origin, modelOrigin refreshOrigin
		cfg := AUConfig{Capacity: 1024, TTL: time.Minute, RefreshWindow: 10 * time.Second, Clock: sim, Refresher: origin.fetch}
		cfg.Capacity = fuzzShards * 1024
		c := newAULRU(cfg, fuzzShards)
		cfg.Capacity, cfg.Refresher = 1024, modelOrigin.fetch
		var models [fuzzShards]*modelAULRU
		for i := range models {
			models[i] = newModelAULRU(cfg)
		}
		for step := 0; ops.more(); step++ {
			var desc string
			// A request's arrival time is at or a little before the
			// cache clock's reading.
			now := sim.Now().Add(-time.Duration(ops.next(3)) * time.Second)
			k := ops.key()
			m := models[c.pick.hash([]byte(k))&c.pick.mask]
			switch ops.next(10) {
			case 0, 1:
				desc = "Get " + k
				var v []byte
				var ok bool
				n := ^uint64(0) // Get does not say
				if ops.next(2) == 0 {
					now = sim.Now()
					v, ok = c.Get(k)
				} else {
					v, ok, n = c.GetAt([]byte(k), now)
				}
				mv, mok, mn := m.GetAt(k, now)
				if ok != mok || string(v) != string(mv) {
					t.Fatalf("step %d %s = %q %v, model %q %v", step, desc, v, ok, mv, mok)
				}
				if n != ^uint64(0) && n != mn {
					t.Fatalf("step %d %s: shard count %d (writes on a miss, hits on a hit), model %d", step, desc, n, mn)
				}
			case 2:
				v := ops.value(step)
				desc = fmt.Sprintf("Put %s (%d B)", k, len(v))
				if ops.next(2) == 0 {
					now = sim.Now()
					c.Put(k, v)
				} else {
					c.PutAt([]byte(k), v, now)
				}
				m.PutAt(k, v, now)
			case 3:
				v := ops.value(step)
				desc = fmt.Sprintf("Update %s (%d B)", k, len(v))
				var ok bool
				if ops.next(2) == 0 {
					now = sim.Now()
					ok = c.Update([]byte(k), v)
				} else {
					ok = c.UpdateAt([]byte(k), v, now)
				}
				if mok := m.UpdateAt(k, v, now); ok != mok {
					t.Fatalf("step %d %s = %v, model %v", step, desc, ok, mok)
				}
			case 4:
				desc = "Delete " + k
				c.Delete([]byte(k))
				m.Delete(k)
			case 5, 6:
				d := time.Duration(ops.next(40)) * time.Second
				desc = fmt.Sprintf("Advance %v", d)
				sim.Advance(d)
			case 7:
				shift++
				desc = fmt.Sprintf("estimate shift %d", shift)
			case 9:
				// A fill after a miss, with no write since or one.
				v := ops.value(step)
				writes, est := m.writes-uint64(ops.next(2)), float64(ops.next(5))
				desc = fmt.Sprintf("Fill %s (%d B) at write %d, estimate %v", k, len(v), writes, est)
				c.FillAt([]byte(k), v, now, writes, est, estimate)
				m.FillAt(k, v, now, writes, est, estimate)
			case 8:
				desc = "ResetStats"
				c.ResetStats()
				for _, m := range models {
					m.refreshes = 0
				}
			}
			var n int
			var used, refreshes int64
			for i, m := range models {
				if got, want := auSnapshot(c, &c.shards[i]), modelAUSnapshot(m); got != want {
					t.Fatalf("after step %d %s, shard %d:\n got %s\nwant %s", step, desc, i, got, want)
				}
				n, used, refreshes = n+len(m.items), used+m.used, refreshes+m.refreshes
			}
			if c.Len() != n || c.Used() != used || c.Refreshes() != refreshes {
				t.Fatalf("after step %d %s: Len %d Used %d Refreshes %d, models %d %d %d",
					step, desc, c.Len(), c.Used(), c.Refreshes(), n, used, refreshes)
			}
			if origin.n != modelOrigin.n {
				t.Fatalf("after step %d %s: %d origin fetches, model %d", step, desc, origin.n, modelOrigin.n)
			}
		}
	})
}
