package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/metaserver"
)

// parkedReadStack is a proxy with a one-shard AU-LRU on sim, over nodes
// that cache nothing and burn a read cost on sim for every value they
// read, after the engine read and before the reply: a read stays parked
// between its node read and its AU-LRU fill until sim advances.
func parkedReadStack(t *testing.T, sim *clock.Sim) *Proxy {
	t.Helper()
	node := datanode.Config{CacheBytes: 1, Cost: datanode.CostModel{IOReadTime: time.Microsecond}}
	return nodeStack(t, sim, node, Config{EnableCache: true, ProxyQuota: 1e9, CacheBytes: 1 << 20, CacheTTL: time.Minute})
}

// waitParked waits until a goroutine sleeps on sim beyond the base
// sleepers already there.
func waitParked(t *testing.T, sim *clock.Sim, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); sim.Pending() <= base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read never reached its node read cost")
		}
	}
}

// TestAULRUFillLosesToWriteThrough parks a read of a hot, uncached key
// between its node read and its AU-LRU fill, and stores a newer value
// meanwhile: the write finds the key absent and, the key being hot,
// caches its own value. The parked read's fill carries the older value
// and must not replace it, on the point GET path and on the MGET path.
func TestAULRUFillLosesToWriteThrough(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(p *Proxy, key []byte) ([]byte, error)
	}{
		{"GET", func(p *Proxy, key []byte) ([]byte, error) { return p.Get(bg, key) }},
		{"MGET", func(p *Proxy, key []byte) ([]byte, error) {
			vals, errs := p.BatchGet(bg, [][]byte{key})
			return vals[0], errs[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := clock.NewSim(time.Unix(0, 0))
			p := parkedReadStack(t, sim)
			key := []byte("k")
			if err := p.Put(bg, key, []byte("v1"), 0); err != nil { // the first access: not cached
				t.Fatal(err)
			}
			if _, ok := p.cache.Get(string(key)); ok {
				t.Fatal("a first-access write was cached")
			}
			base := sim.Pending()
			read := make(chan []byte, 1)
			go func() { // the second access: hot, so its fill is admitted
				v, err := tc.read(p, key)
				if err != nil {
					t.Error(err)
				}
				read <- v
			}()
			waitParked(t, sim, base) // the read has v1 from the node
			if err := p.Put(bg, key, []byte("v2"), 0); err != nil {
				t.Fatal(err)
			}
			if v, ok := p.cache.Get(string(key)); !ok || string(v) != "v2" {
				t.Fatalf("after the write the AU-LRU holds %q (%v), want the written-through v2", v, ok)
			}
			sim.Advance(time.Microsecond)
			if v := <-read; string(v) != "v1" {
				t.Fatalf("the parked read = %q, want v1 from the node", v)
			}
			if v, ok := p.cache.Get(string(key)); !ok || string(v) != "v2" {
				t.Fatalf("the AU-LRU serves %q (%v) after the read's fill, want v2: the fill overwrote the write-through", v, ok)
			}
		})
	}
}

// skewedReads reads n keys of a 20,000-key Zipf stream, none of them
// stored, so each one misses, touches p's sketch and fills nothing. At
// 60,000 reads the collision mass, total over width, is about 15.
func skewedReads(t *testing.T, p *Proxy, n int) {
	t.Helper()
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, 20_000-1)
	for i := 0; i < n; i++ {
		if _, err := p.Get(bg, []byte(fmt.Sprintf("bg-%d", zipf.Uint64()))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("background read: %v", err)
		}
	}
}

// storeBehind stores key=value at key's primary behind the proxy's back:
// neither its sketch nor its AU-LRU sees the write.
func storeBehind(t *testing.T, m *metaserver.Meta, p *Proxy, key, value []byte) {
	t.Helper()
	route, _, err := p.routeForKey(key)
	if err != nil {
		t.Fatal(err)
	}
	node, err := m.Node(route.Primary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.PutAt(bg, route.Partition, route.Epoch, key, value, 0); err != nil {
		t.Fatal(err)
	}
}

// TestFillIntoRoomAdmitsOnSecondRead: once skewed traffic has made the
// sketch's collision mass far larger than the admission threshold, the
// debiased estimate of a key read twice is below it, yet a read fill
// into a shard with room is decided on the upper estimate, so the key
// is cached after its second read.
func TestFillIntoRoomAdmitsOnSecondRead(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0)) // stands still: nothing decays
	m, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim; c.CacheBytes = 32 << 20 })
	key := []byte("cold")
	storeBehind(t, m, p, key, []byte("v"))
	skewedReads(t, p, 60_000)
	for i := 0; i < 2; i++ {
		if v, err := p.Get(bg, key); err != nil || string(v) != "v" {
			t.Fatalf("read %d = %q, %v", i+1, v, err)
		}
	}
	if est := p.hot.EstimateDebiased(key); est >= p.hotThreshold {
		t.Fatalf("debiased estimate %v after two reads: the stream is too even to show the undercount", est)
	}
	if v, ok := p.cache.Get(string(key)); !ok || string(v) != "v" {
		t.Fatal("a key read twice was not cached, though its shard has room")
	}
}

// TestFillThatEvictsNeedsDebiasedHeat: in a full one-shard AU-LRU, a
// key whose upper estimate passes the threshold only on the collision
// mass must not push out a resident; a key read often enough to pass
// on its debiased estimate still takes a resident's place.
func TestFillThatEvictsNeedsDebiasedHeat(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	const residents, entry = 8, 128 // bytes per entry, key included
	m, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim; c.CacheBytes = residents * entry })
	value := func(key string) []byte { return bytes.Repeat([]byte("v"), entry-len(key)) }
	var names []string
	for i := 0; i < residents; i++ {
		names = append(names, fmt.Sprintf("r%d", i))
	}
	for _, k := range append(names, "cold", "hot") {
		storeBehind(t, m, p, []byte(k), value(k))
	}
	for _, k := range names { // two reads each, while the sketch is quiet
		for i := 0; i < 2; i++ {
			if _, err := p.Get(bg, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, used := p.cache.Len(), p.cache.Used(); n != residents || used != residents*entry {
		t.Fatalf("the AU-LRU holds %d entries, %d B; want it full with the %d residents", n, used, residents)
	}
	cached := func() (out []string) {
		for _, k := range append(names, "cold", "hot") {
			if _, ok := p.cache.Get(k); ok {
				out = append(out, k)
			}
		}
		return out
	}
	skewedReads(t, p, 60_000)

	for i := 0; i < 2; i++ {
		if _, err := p.Get(bg, []byte("cold")); err != nil {
			t.Fatal(err)
		}
	}
	// Read twice, the key's upper estimate is at the threshold.
	if est := p.hot.EstimateDebiased([]byte("cold")); est >= p.hotThreshold {
		t.Fatalf("cold key's debiased estimate %v: the stream is too even to show the undercount", est)
	}
	if got := cached(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("after the cold key's reads the AU-LRU holds %v, want the residents %v", got, names)
	}

	reads := 0
	for ; reads < 1000; reads++ {
		if _, ok := p.cache.Get("hot"); ok {
			break
		}
		if _, err := p.Get(bg, []byte("hot")); err != nil {
			t.Fatal(err)
		}
	}
	if est := p.hot.EstimateDebiased([]byte("hot")); reads == 1000 || est < p.hotThreshold {
		t.Fatalf("after %d reads the hot key is not cached (debiased estimate %v)", reads, est)
	}
	if got := cached(); len(got) != residents || got[residents-1] != "hot" {
		t.Fatalf("after the hot key's fill the AU-LRU holds %v, want it and %d residents", got, residents-1)
	}
	t.Logf("the hot key was cached after %d reads", reads)
}
