package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"abase/internal/clock"
)

// --- SA-LRU ---

func TestSALRUBasics(t *testing.T) {
	c := NewSALRU(1 << 20)
	c.Put("a", []byte("1"))
	v, ok := c.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	c.Delete([]byte("a"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key found")
	}
}

func TestSALRUDeletePrefix(t *testing.T) {
	c := NewSALRU(1 << 20)
	for _, k := range []string{"p1\x00a", "p1\x00b", "p10\x00a", "p2\x00a"} {
		c.Put(k, []byte("value"))
	}
	c.DeletePrefix("p1\x00")
	for k, want := range map[string]bool{"p1\x00a": false, "p1\x00b": false, "p10\x00a": true, "p2\x00a": true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("after DeletePrefix: %q present = %v, want %v", k, ok, want)
		}
	}
	if want := int64(len("p10\x00a") + len("p2\x00a") + 2*len("value")); c.Len() != 2 || c.Used() != want {
		t.Errorf("Len %d Used %d, want 2 and %d", c.Len(), c.Used(), want)
	}

	// Two prefixed keys and an unprefixed one share one probe run:
	// freeing the first shifts the others back a slot, so a walk over
	// the slots would pass the second by.
	one, taken := newSALRU(1<<20, 1), map[string]bool{}
	run := []string{keyAt(one.pick, taken, "p1\x00a%d", 3), keyAt(one.pick, taken, "p1\x00b%d", 3), keyAt(one.pick, taken, "p10\x00%d", 3)}
	for _, k := range run {
		one.Put(k, []byte("value"))
	}
	one.DeletePrefix("p1\x00")
	for i, k := range run {
		if _, ok := one.Get(k); ok != (i == 2) {
			t.Errorf("after DeletePrefix in one probe run: %q present = %v", k, ok)
		}
	}
	checkSABooks(t, one, 1<<20)
}

func TestSALRUUpdateReplaces(t *testing.T) {
	c := NewSALRU(1 << 20)
	c.Put("k", []byte("old"))
	c.Put("k", []byte("newer-value"))
	v, _ := c.Get("k")
	if string(v) != "newer-value" {
		t.Fatalf("v = %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestSALRUCapacityBound(t *testing.T) {
	c := NewSALRU(1000)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key%02d", i), bytes.Repeat([]byte("x"), 50))
	}
	if c.Used() > 1000 {
		t.Fatalf("Used = %d exceeds capacity", c.Used())
	}
	if c.Len() == 0 {
		t.Fatal("everything evicted")
	}
}

func TestSALRURejectsOversized(t *testing.T) {
	c := NewSALRU(100)
	c.Put("big", bytes.Repeat([]byte("x"), 200))
	if c.Len() != 0 {
		t.Fatal("oversized value cached")
	}
}

func TestSALRUPrefersEvictingColdLargeItems(t *testing.T) {
	// Small hot entries + large cold entries under pressure: the large
	// cold class should be evicted first (paper: SA-LRU retains small
	// data with lower access costs).
	c := NewSALRU(20_000)
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("small%02d", i), bytes.Repeat([]byte("s"), 20))
	}
	// Heat the small entries.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			c.Get(fmt.Sprintf("small%02d", i))
		}
	}
	// Insert large cold values to force eviction.
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("large%02d", i), bytes.Repeat([]byte("L"), 2000))
	}
	smallAlive := 0
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(fmt.Sprintf("small%02d", i)); ok {
			smallAlive++
		}
	}
	if smallAlive < 40 {
		t.Fatalf("only %d/50 small hot entries survived", smallAlive)
	}
}

func TestSALRUClassFor(t *testing.T) {
	cases := []struct {
		size, class int
	}{
		{0, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}, {1 << 30, saNumClasses - 1},
	}
	for _, tc := range cases {
		if got := classFor(tc.size); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.size, got, tc.class)
		}
	}
}

func TestSALRUConcurrent(t *testing.T) {
	c := NewSALRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*500+i)%100)
				c.Put(k, []byte(k))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 1<<16 {
		t.Fatalf("capacity violated: %d", c.Used())
	}
}

func TestSALRUPropertyNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8, sizes []uint16) bool {
		c := NewSALRU(4096)
		n := len(keys)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			c.Put(fmt.Sprintf("k%d", keys[i]), make([]byte, sizes[i]%3000))
		}
		return c.Used() <= 4096
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSALRUPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSALRU(0)
}

// --- AU-LRU ---

func newTestAULRU(sim *clock.Sim, refresher Refresher) *AULRU {
	return NewAULRU(AUConfig{
		Capacity:      1 << 20,
		TTL:           time.Minute,
		RefreshWindow: 10 * time.Second,
		Clock:         sim,
		Refresher:     refresher,
	})
}

func TestAULRUBasics(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := newTestAULRU(sim, nil)
	c.Put("a", []byte("1"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	c.Delete([]byte("a"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key present")
	}
}

func TestAULRUExpiry(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := newTestAULRU(sim, nil)
	c.Put("k", []byte("v"))
	sim.Advance(2 * time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Fatalf("the expired lookup left %d entries, %d B", c.Len(), c.Used())
	}
}

func TestAULRUActiveUpdateRenewsHotKeys(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	var refreshed int
	c := newTestAULRU(sim, func(key string) ([]byte, bool) {
		refreshed++
		return []byte("fresh"), true
	})
	c.Put("hot", []byte("v0"))
	c.Get("hot") // marks hot
	// Move to within the refresh window (TTL 60s, window 10s).
	sim.Advance(55 * time.Second)
	if _, ok := c.Get("hot"); !ok {
		t.Fatal("hot key missing before expiry")
	}
	if refreshed != 0 {
		t.Fatalf("first hit inside the window refreshed %d times, want 0", refreshed)
	}
	if _, ok := c.Get("hot"); !ok { // the second one renews it
		t.Fatal("hot key missing before expiry")
	}
	if refreshed != 1 {
		t.Fatalf("refreshed = %d, want 1", refreshed)
	}
	// After the original TTL would have expired, the entry must survive.
	sim.Advance(30 * time.Second)
	v, ok := c.Get("hot")
	if !ok || string(v) != "fresh" {
		t.Fatalf("renewed value = %q %v", v, ok)
	}
	if r := c.Refreshes(); r != 1 {
		t.Fatalf("refresh count = %d", r)
	}
	c.ResetStats()
	if r := c.Refreshes(); r != 0 {
		t.Fatalf("refresh count after ResetStats = %d", r)
	}
}

func TestAULRUColdKeysNotRefreshed(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	var refreshed int
	c := newTestAULRU(sim, func(key string) ([]byte, bool) {
		refreshed++
		return []byte("fresh"), true
	})
	c.Put("cold", []byte("v"))
	sim.Advance(55 * time.Second)
	c.Get("cold") // first access inside window: becomes hot but not refreshed yet
	if refreshed != 0 {
		t.Fatalf("cold key refreshed %d times", refreshed)
	}
}

func TestAULRURefreshDeletesVanishedKeys(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := newTestAULRU(sim, func(key string) ([]byte, bool) {
		return nil, false // key no longer exists at origin
	})
	c.Put("gone", []byte("v"))
	sim.Advance(55 * time.Second)
	c.Get("gone") // inside the refresh window: marks it due
	c.Get("gone") // triggers refresh, which deletes
	if _, ok := c.Get("gone"); ok {
		t.Fatal("vanished key still cached")
	}
}

// TestAULRURefreshKeepsNewerWriteThrough: a refresh reads the origin
// outside the lock, so a write-through can land while the read is in
// flight. What the caller stored is newer than what the refresh read
// and must survive it — as must a delete, and a re-insert after one.
func TestAULRURefreshKeepsNewerWriteThrough(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(c *AULRU) // lands while the refresh reads the origin
		want  string         // "" = the key must stay absent
	}{
		{"update", func(c *AULRU) { c.Update([]byte("k"), []byte("v2")) }, "v2"},
		{"put", func(c *AULRU) { c.Put("k", []byte("v2")) }, "v2"},
		{"delete", func(c *AULRU) { c.Delete([]byte("k")) }, ""},
		{"delete then put", func(c *AULRU) { c.Delete([]byte("k")); c.Put("k", []byte("v2")) }, "v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(0, 0))
			var c *AULRU
			c = newTestAULRU(sim, func(string) ([]byte, bool) {
				tc.write(c)
				return []byte("v1"), true // what the origin held before the write
			})
			c.Put("k", []byte("v1"))
			sim.Advance(55 * time.Second)
			c.Get("k") // inside the refresh window: marks it due
			c.Get("k") // runs the refresher
			v, ok := c.Get("k")
			if ok != (tc.want != "") || string(v) != tc.want {
				t.Fatalf("after the racing refresh Get = %q %v, want %q", v, ok, tc.want)
			}
		})
	}
}

func TestAULRUCapacity(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := NewAULRU(AUConfig{Capacity: 500, TTL: time.Minute, Clock: sim})
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte("x"), 40))
	}
	if c.Used() > 500 {
		t.Fatalf("Used = %d", c.Used())
	}
}

func TestAULRULRUEvictionOrder(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := NewAULRU(AUConfig{Capacity: 120, TTL: time.Minute, Clock: sim})
	c.Put("a", bytes.Repeat([]byte("x"), 40)) // 41 bytes
	c.Put("b", bytes.Repeat([]byte("x"), 40))
	c.Get("a") // a is now MRU
	c.Put("c", bytes.Repeat([]byte("x"), 40))
	// b should have been evicted, a retained.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("MRU entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry retained")
	}
}

func TestAULRUPanics(t *testing.T) {
	for _, cfg := range []AUConfig{
		{Capacity: 0, TTL: time.Second},
		{Capacity: 10, TTL: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			NewAULRU(cfg)
		}()
	}
}

func TestAULRUConcurrent(t *testing.T) {
	c := NewAULRU(AUConfig{Capacity: 1 << 16, TTL: time.Minute})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%64)
				c.Put(k, []byte(k))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 1<<16 {
		t.Fatal("capacity violated")
	}
}

// streamLen is the length of a benchStream, a constant so the timed
// loops wrap with a mask, not a division.
const streamLen = 1 << 20

// benchStream returns n keys formatted from format and 0..n-1, each
// cached by put with a 128-byte value, and a Zipf(1.01) stream of
// indexes into them, the hot-key shape of the bench workloads.
func benchStream(format string, n int, put func(key, value []byte)) (keys [][]byte, order []int32) {
	keys = make([][]byte, n)
	value := bytes.Repeat([]byte("v"), 128)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, format, i)
		put(keys[i], value)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.01, 1, uint64(n-1))
	order = make([]int32, streamLen)
	for i := range order {
		order[i] = int32(zipf.Uint64())
	}
	return keys, order
}

// BenchmarkSALRUGet is an SA-LRU hit as a DataNode serves a hot-key
// workload: a Zipf(1.01) stream over 65,536 keys of the node's shape
// (partition, NUL, "key-%08d": past a slot's inline limit), all cached
// with 128-byte values in the node's default 64 MiB, one caller per
// CPU (run it at -cpu 1,2).
func BenchmarkSALRUGet(b *testing.B) {
	c := NewSALRU(64 << 20)
	keys, order := benchStream("main/0\x00key-%08d", 1<<16, c.Insert)
	var callers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each caller walks the stream from its own offset.
		for i := int(callers.Add(1)) * streamLen / 8; pb.Next(); i++ {
			if _, hit := c.Lookup(keys[order[i%streamLen]]); !hit {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkAULRUGet is an AU-LRU hit as the proxy serves a hot-key
// workload: a Zipf(1.01) stream over 65,536 "key-%08d" keys, all cached
// with 128-byte values, one caller per CPU (run it at -cpu 1,2).
func BenchmarkAULRUGet(b *testing.B) {
	c := NewAULRU(AUConfig{Capacity: 32 << 20, TTL: time.Hour})
	now := time.Now()
	keys, order := benchStream("key-%08d", 1<<16, func(key, value []byte) { c.PutAt(key, value, now) })
	var callers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each caller walks the stream from its own offset.
		for i := int(callers.Add(1)) * streamLen / 8; pb.Next(); i++ {
			if _, hit, _ := c.GetAt(keys[order[i%streamLen]], now); !hit {
				b.Error("miss")
				return
			}
		}
	})
}

// TestAULRUUpdateOnlyExisting: Update is write-through coherence for
// entries that already earned a slot — it must never invent one.
func TestAULRUUpdateOnlyExisting(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := newTestAULRU(sim, nil)
	if c.Update([]byte("ghost"), []byte("v")) {
		t.Fatal("Update created an entry for an uncached key")
	}
	if _, ok := c.Get("ghost"); ok {
		t.Fatal("ghost entry present after rejected Update")
	}
	c.Put("k", []byte("v1"))
	if !c.Update([]byte("k"), []byte("v2-longer")) {
		t.Fatal("Update missed an existing entry")
	}
	if v, ok := c.Get("k"); !ok || string(v) != "v2-longer" {
		t.Fatalf("Get after Update = %q %v", v, ok)
	}
	// Update renews the TTL: entry written at t=0 (TTL 60s), updated at
	// t=50s, must still be alive at t=100s.
	sim.Advance(50 * time.Second)
	c.Update([]byte("k"), []byte("v3"))
	sim.Advance(50 * time.Second)
	if v, ok := c.Get("k"); !ok || string(v) != "v3" {
		t.Fatalf("updated entry at t=100s = %q %v, want alive with v3", v, ok)
	}
}

// TestAULRUUpdateOversizedDropsOnlyThatEntry: an update too large to
// ever fit must not churn the rest of the cache through the evict
// loop — it drops the (now stale) entry and leaves neighbors alone.
func TestAULRUUpdateOversizedDropsOnlyThatEntry(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	c := NewAULRU(AUConfig{Capacity: 1 << 10, TTL: time.Minute, Clock: sim})
	c.Put("other", []byte("safe"))
	c.Put("k", []byte("small"))
	if !c.Update([]byte("k"), make([]byte, 4096)) {
		t.Fatal("oversized Update on existing key not acknowledged")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("oversized entry retained")
	}
	if v, ok := c.Get("other"); !ok || string(v) != "safe" {
		t.Fatal("oversized Update evicted an unrelated entry")
	}
}

// TestEntrySizes pins what one cached key costs on the heap, on a
// 64-bit platform. An entry of either cache keeps only its list links,
// key, generation, slot number, size class and refreshing bit, 48
// bytes; what a hit reads is in its index slot, one 64-byte cache line.
func TestEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if e, sl := unsafe.Sizeof(entry{}), unsafe.Sizeof(slot{}); e != 48 || sl != 64 {
		t.Fatalf("entry %d B, slot %d B, want 48 and 64", e, sl)
	}
}
