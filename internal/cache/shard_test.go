package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"abase/internal/clock"
)

// TestShardRule pins how a capacity splits: one shard per MiB, rounded
// down to a power of two, at most 16, each shard an equal share.
func TestShardRule(t *testing.T) {
	for _, tc := range []struct {
		capacity int64
		shards   int
	}{
		{1, 1}, {1 << 20, 1}, {2<<20 - 1, 1}, {2 << 20, 2}, {3 << 20, 2},
		{8 << 20, 8}, {15 << 20, 8}, {16 << 20, 16}, {64 << 20, 16}, {1 << 40, 16},
	} {
		if got := Shards(tc.capacity); got != tc.shards {
			t.Errorf("Shards(%d) = %d, want %d", tc.capacity, got, tc.shards)
		}
		sa := NewSALRU(tc.capacity)
		au := NewAULRU(AUConfig{Capacity: tc.capacity, TTL: time.Minute})
		if len(sa.shards) != tc.shards || len(au.shards) != tc.shards {
			t.Errorf("capacity %d: SA-LRU %d shards, AU-LRU %d, want %d", tc.capacity, len(sa.shards), len(au.shards), tc.shards)
		}
		share := tc.capacity / int64(tc.shards)
		if sa.shards[0].capacity != share || au.shards[0].capacity != share {
			t.Errorf("capacity %d: shard capacity %d/%d, want %d", tc.capacity, sa.shards[0].capacity, au.shards[0].capacity, share)
		}
	}
}

// TestEntryLargerThanItsShardRefused: a shard is the bound an entry must
// fit, as the whole cache was before the split.
func TestEntryLargerThanItsShardRefused(t *testing.T) {
	const capacity = 2 << 20 // two 1 MiB shards
	big, fits := make([]byte, 1<<20), make([]byte, 1<<20-16)
	sa := NewSALRU(capacity)
	sa.Put("big", big)
	if sa.Len() != 0 {
		t.Fatal("SA-LRU cached an entry larger than its shard")
	}
	sa.Put("fits", fits)
	if sa.Len() != 1 {
		t.Fatal("SA-LRU refused an entry that fits its shard")
	}

	sim := clock.NewSim(time.Unix(0, 0))
	au := NewAULRU(AUConfig{Capacity: capacity, TTL: time.Minute, Clock: sim})
	au.Put("big", big)
	if au.Len() != 0 {
		t.Fatal("AU-LRU cached an entry larger than its shard")
	}
	au.Put("fits", fits)
	au.Put("other", []byte("v"))
	if au.Len() != 2 {
		t.Fatal("AU-LRU refused an entry that fits its shard")
	}
	// A write-through that outgrows the shard drops only that entry.
	if !au.Update([]byte("fits"), big) || au.Len() != 1 {
		t.Fatalf("oversized write-through: Len %d, want 1", au.Len())
	}
	if _, ok := au.Get("other"); !ok {
		t.Fatal("oversized write-through evicted another entry")
	}
}

// TestShardsConcurrent drives every method of both caches from several
// goroutines over small shards that evict all the time, then checks
// each shard's books: the bytes it counts are the bytes its entries
// hold, every listed entry is indexed, and no shard exceeds its share.
// Under -race it is the sharded caches' stress test.
func TestShardsConcurrent(t *testing.T) {
	const shards, share = 4, 2048
	sa := newSALRU(shards*share, shards)
	sim := clock.NewSim(time.Unix(0, 0))
	var fetches sync.Mutex
	au := newAULRU(AUConfig{
		Capacity: shards * share, TTL: time.Minute, RefreshWindow: 30 * time.Second, Clock: sim,
		Refresher: func(key string) ([]byte, bool) {
			fetches.Lock()
			defer fetches.Unlock()
			return []byte("fresh-" + key), len(key)%7 != 0
		},
	}, shards)
	estimate := func(key string) float64 { return float64(len(key) % 3) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("p%d\x00k%d", i%3, (g*7+i)%97))
				v := make([]byte, (g*31+i)%300)
				switch i % 8 {
				case 0, 1, 2:
					sa.Lookup(k)
					if _, hit, writes := au.GetAt(k, sim.Now()); !hit {
						au.FillAt(k, v, sim.Now(), writes, float64(i%4), estimate)
					}
				case 3, 4:
					sa.Insert(k, v)
					au.PutAt(k, v, sim.Now())
				case 5:
					au.UpdateAt(k, v, sim.Now())
					sa.Delete(k)
				case 6:
					au.Delete(k)
					if i%64 == 6 {
						sa.DeletePrefix("p1\x00")
					}
				case 7:
					sa.Len()
					au.Refreshes()
					au.Used()
					if g == 0 {
						sim.Advance(time.Second)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkSABooks(t, sa, share)
	checkAUBooks(t, au, share)
}

// checkList checks l's links run both ways and number l.n, and returns
// its entries front to back.
func checkList(t *testing.T, l *clockList) []*entry {
	t.Helper()
	var es []*entry
	for e := l.root.next; e != &l.root; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			t.Fatalf("entry %q is linked one way only", e.key)
		}
		es = append(es, e)
	}
	if len(es) != l.n {
		t.Fatalf("list counts %d entries, links reach %d", l.n, len(es))
	}
	return es
}

// checkSABooks checks every shard of c: each listed entry is listed in
// its class, the bytes each class and the shard count are the bytes its
// entries hold, no shard exceeds share, and the index is as checkIndex
// checks.
func checkSABooks(t *testing.T, c *SALRU, share int64) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		var used int64
		var all []*entry
		for j := range s.classes {
			cls := &s.classes[j]
			var bytes int64
			for _, e := range checkList(t, &cls.ll) {
				if int(e.class) != j {
					t.Fatalf("SA-LRU shard %d: entry %q of class %d listed in class %d", i, e.key, e.class, j)
				}
				bytes += s.size(e)
				all = append(all, e)
			}
			if bytes != cls.bytes {
				t.Fatalf("SA-LRU shard %d class %d counts %d B, entries hold %d", i, j, cls.bytes, bytes)
			}
			used += bytes
		}
		checkIndex(t, c.pick, &s.index, all)
		if used != s.used || used > share {
			t.Fatalf("SA-LRU shard %d: %d B used of %d counted, share %d", i, used, s.used, share)
		}
	}
}

// checkAUBooks checks every shard of c as checkSABooks does, and that
// no refresh is left marked in flight.
func checkAUBooks(t *testing.T, c *AULRU, share int64) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		var used int64
		es := checkList(t, &s.ll)
		for _, e := range es {
			used += s.size(e)
			if e.refreshing {
				t.Fatalf("AU-LRU shard %d: entry %q left marked refreshing", i, e.key)
			}
		}
		checkIndex(t, c.pick, &s.index, es)
		if used != s.used || used > share {
			t.Fatalf("AU-LRU shard %d: %d B used of %d counted, share %d", i, used, s.used, share)
		}
	}
}

// checkIndex checks that x, indexing keys hashed by p, holds exactly
// the listed entries es: a probe for each one's key finds it at the
// slot the entry records, no other slot is taken, the count is right,
// and the table is at most 3/4 full.
func checkIndex(t *testing.T, p picker, x *index, es []*entry) {
	t.Helper()
	for _, e := range es {
		key := []byte(e.key)
		if i, ok := x.find(key, p.hash(key)); !ok || i != int(e.slot) || x.slots[i].e != e {
			t.Fatalf("entry %q records slot %d, its probe ends at %d (found %v)", e.key, e.slot, i, ok)
		}
	}
	taken := 0
	for i := range x.slots {
		if x.slots[i].e != nil {
			taken++
		}
	}
	if taken != len(es) || taken != x.n || 4*taken > 3*len(x.slots) {
		t.Fatalf("index takes %d of %d slots, counts %d, for %d listed entries", taken, len(x.slots), x.n, len(es))
	}
}

// indexed is a one-shard cache of either kind, seen through what the
// index tests drive and check.
type indexed struct {
	name  string
	pick  picker
	x     *index
	put   func(key string, value []byte)
	get   func(key string) ([]byte, bool)
	del   func(key string)
	books func(t *testing.T)
}

// indexedCaches returns a new one-shard cache of each kind.
func indexedCaches() []indexed {
	sa := newSALRU(1<<20, 1)
	au := newAULRU(AUConfig{Capacity: 1 << 20, TTL: time.Minute, Clock: clock.NewSim(time.Unix(0, 0))}, 1)
	return []indexed{
		{"SA-LRU", sa.pick, &sa.shards[0].index, sa.Put, sa.Get,
			func(k string) { sa.Delete([]byte(k)) }, func(t *testing.T) { t.Helper(); checkSABooks(t, sa, 1<<20) }},
		{"AU-LRU", au.pick, &au.shards[0].index, au.Put, au.Get,
			func(k string) { au.Delete([]byte(k)) }, func(t *testing.T) { t.Helper(); checkAUBooks(t, au, 1<<20) }},
	}
}

// keyAt returns a key not in taken, formatted from format and a number,
// whose probe starts at slot home of a new index under p, and adds it
// to taken.
func keyAt(p picker, taken map[string]bool, format string, home int) string {
	for n := 0; ; n++ {
		k := fmt.Sprintf(format, n)
		if !taken[k] && int(p.hash([]byte(k))>>32)&(minSlots-1) == home {
			taken[k] = true
			return k
		}
	}
}

// TestIndexBackwardShift deletes through a probe run that wraps past
// the end of a shard's table, and through a growth, checking after each
// step that every key left is found at the slot its entry records.
// Keys are picked by the slot their probe starts from, on both sides of
// the inline-key limit, so the slots each step leaves are known.
func TestIndexBackwardShift(t *testing.T) {
	for _, c := range indexedCaches() {
		t.Run(c.name, func(t *testing.T) {
			taken := map[string]bool{}
			const short, long = "k%d", "a-key-longer-than-a-slot-%d"
			check := func(desc string, at map[string]int) {
				t.Helper()
				c.books(t)
				for k, want := range at {
					if i, ok := c.x.find([]byte(k), c.pick.hash([]byte(k))); !ok || i != want {
						t.Fatalf("%s: %q at slot %d (found %v), want %d", desc, k, i, ok, want)
					}
					if v, ok := c.get(k); !ok || string(v) != "v-"+k {
						t.Fatalf("%s: Get(%q) = %q %v", desc, k, v, ok)
					}
				}
			}
			// a and b's run starts at 6 and wraps: b2 lands in 0 and d in 1,
			// ahead of e, whose probe starts at 0.
			a, b, b2 := keyAt(c.pick, taken, short, 6), keyAt(c.pick, taken, long, 7), keyAt(c.pick, taken, short, 6)
			d, e := keyAt(c.pick, taken, short, 7), keyAt(c.pick, taken, long, 0)
			for _, k := range []string{a, b, b2, d, e} {
				c.put(k, []byte("v-"+k))
			}
			check("filled", map[string]int{a: 6, b: 7, b2: 0, d: 1, e: 2})
			c.del(a) // b stays home; b2, d and e each shift back one
			check("deleted a", map[string]int{b: 7, b2: 6, d: 0, e: 1})
			c.del(b) // d returns home past the end; e follows it
			check("deleted b", map[string]int{b2: 6, d: 7, e: 0})

			// Grow past 3/4 of the first table, then delete everything.
			keys := []string{b2, d, e}
			for n := 0; len(c.x.slots) == minSlots; n++ {
				k := fmt.Sprintf("g%d", n)
				if n%2 == 1 {
					k += "-longer-than-a-slot"
				}
				c.put(k, []byte("v-"+k))
				keys = append(keys, k)
			}
			if len(c.x.slots) != 2*minSlots || len(keys) != 3*minSlots/4+1 {
				t.Fatalf("%d keys in %d slots, want %d in %d", len(keys), len(c.x.slots), 3*minSlots/4+1, 2*minSlots)
			}
			check("grown", nil)
			for i, k := range keys {
				c.del(k)
				if _, ok := c.get(k); ok {
					t.Fatalf("%q found after its delete", k)
				}
				check("deleted "+k, nil)
				for _, left := range keys[i+1:] {
					if v, ok := c.get(left); !ok || string(v) != "v-"+left {
						t.Fatalf("after deleting %q: Get(%q) = %q %v", k, left, v, ok)
					}
				}
			}
		})
	}
}

// TestIndexTagCollision stores two keys of one length whose hashes
// share the tag a slot keeps, short enough to sit in their slots and
// too long to, and reads each one's own value back: a tag is a filter,
// never the match.
func TestIndexTagCollision(t *testing.T) {
	for _, format := range []string{"t%07d", "a-key-longer-than-a-slot-%07d"} {
		for _, c := range indexedCaches() {
			first := map[uint32]string{}
			var a, b string
			for n := 0; b == "" && n < 1<<22; n++ {
				k := fmt.Sprintf(format, n)
				tag := uint32(c.pick.hash([]byte(k)) >> 32)
				if other, ok := first[tag]; ok {
					a, b = other, k
				}
				first[tag] = k
			}
			if b == "" {
				t.Fatalf("%s %s: no two keys share a tag", c.name, format)
			}
			c.put(a, []byte("v-"+a))
			c.put(b, []byte("v-"+b))
			for _, k := range []string{a, b} {
				if v, ok := c.get(k); !ok || string(v) != "v-"+k {
					t.Fatalf("%s: Get(%q) = %q %v, its tag shared with %q", c.name, k, v, ok, a+" "+b)
				}
			}
			c.del(a)
			if _, ok := c.get(a); ok {
				t.Fatalf("%s: %q found after its delete", c.name, a)
			}
			if v, ok := c.get(b); !ok || string(v) != "v-"+b {
				t.Fatalf("%s: Get(%q) = %q %v after deleting %q", c.name, b, v, ok, a)
			}
			c.books(t)
		}
	}
}

// TestClockHandConcurrent races the CLOCK hand against the hits that
// set the bits it clears. Goroutines hit a small hot set, fill a stream
// of cold keys that keeps every shard evicting, write through, and
// delete, on small shards of both caches, with keys on both sides of
// the slot's inline limit and enough of them that the AU-LRU's indexes
// grow; then every shard's books and index must hold. Under -race it
// is the hand's stress test and the index's concurrent insert, lookup
// and evict test.
func TestClockHandConcurrent(t *testing.T) {
	const shards, share = 4, 4096
	sa := newSALRU(shards*share, shards)
	sim := clock.NewSim(time.Unix(0, 0))
	au := newAULRU(AUConfig{Capacity: shards * share, TTL: time.Minute, Clock: sim}, shards)
	estimate := func(key string) float64 { return float64(len(key) % 3) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				// Keys on both sides of the slot's inline limit.
				hot := fmt.Appendf(nil, "hot%d", i%12)
				if i%24 >= 12 {
					hot = fmt.Appendf(hot, "-longer-than-a-slot")
				}
				cold := fmt.Appendf(nil, "cold%d-%d", g, i)
				if i%2 == 1 {
					cold = fmt.Appendf(cold, "-longer-than-a-slot")
				}
				v := make([]byte, 16+(g*37+i)%200)
				switch i % 8 {
				case 0, 1, 2, 3: // hits set bits while the hand clears them
					if _, hit, writes := au.GetAt(hot, sim.Now()); !hit {
						au.FillAt(hot, v, sim.Now(), writes, 0, nil)
					}
					if _, ok := sa.Lookup(hot); !ok {
						sa.Insert(hot, v)
					}
				case 4, 5: // cold fills move the hand, admitted or not
					if _, hit, writes := au.GetAt(cold, sim.Now()); !hit {
						au.FillAt(cold, v, sim.Now(), writes, float64(i%3), estimate)
					}
					sa.Insert(cold, v)
				case 6: // write-through, sometimes growing the entry
					au.UpdateAt(hot, v, sim.Now())
					au.PutAt(cold, v, sim.Now())
					sa.Insert(hot, v)
				case 7:
					au.Delete(hot)
					sa.Delete(hot)
					if g == 0 && i%64 == 7 {
						sim.Advance(10 * time.Second) // expire some entries
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkSABooks(t, sa, share)
	checkAUBooks(t, au, share)
	grown := 0
	for i := range au.shards {
		if len(au.shards[i].slots) > minSlots {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("no AU-LRU shard's index grew")
	}
}
