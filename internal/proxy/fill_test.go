package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"abase/internal/cache"
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
// meanwhile: the write finds the key absent and caches nothing. The
// parked read's fill carries the older value and must not install it,
// on the point GET path and on the MGET path.
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
			if v, ok := p.cache.Get(string(key)); ok {
				t.Fatalf("after the write the AU-LRU holds %q: a write cached an uncached key", v)
			}
			sim.Advance(time.Microsecond)
			if v := <-read; string(v) != "v1" {
				t.Fatalf("the parked read = %q, want v1 from the node", v)
			}
			if v, ok := p.cache.Get(string(key)); ok {
				t.Fatalf("the AU-LRU serves %q after the read's fill, want nothing: the fill installed a value older than the write", v)
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
// sketch's collision mass far larger than the admission threshold, so
// that an estimate less that mass would read a key read twice as cold,
// a read fill into a shard with room is decided on the count-min
// estimate, which never undercounts, so the key is cached after its
// second read.
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
	if mass := float64(p.Stats().CacheMiss) / hotWidth; mass < 4*p.hotThreshold {
		t.Fatalf("collision mass %v: the stream is too light to show the undercount of subtracting it", mass)
	}
	if v, ok := p.cache.Get(string(key)); !ok || string(v) != "v" {
		t.Fatal("a key read twice was not cached, though its shard has room")
	}
}

// fullStack is a proxy whose one-shard AU-LRU is full with the
// residents r0..r7, each read twice (the second read fills it) and not
// hit since, over a sketch that is quiet and never decays. cand is
// stored too, behind the proxy's back, for a read to fill.
func fullStack(t *testing.T, cand string) (p *Proxy, residents []string) {
	t.Helper()
	sim := clock.NewSim(time.Unix(0, 0))
	const n, entry = 8, 128 // bytes per entry, key included
	m, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim; c.CacheBytes = n * entry })
	for i := 0; i < n; i++ {
		residents = append(residents, fmt.Sprintf("r%d", i))
	}
	for _, k := range append(residents, cand) {
		storeBehind(t, m, p, []byte(k), bytes.Repeat([]byte("v"), entry-len(k)))
	}
	for _, k := range residents {
		readN(t, p, k, 2)
	}
	if n, used := p.cache.Len(), p.cache.Used(); n != len(residents) || used != int64(len(residents)*entry) {
		t.Fatalf("the AU-LRU holds %d entries, %d B; want it full with the %d residents", n, used, len(residents))
	}
	return p, residents
}

// readN reads key n times through the proxy.
func readN(t *testing.T, p *Proxy, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Get(bg, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
}

// cachedOf returns which of keys the AU-LRU holds, marking them hit.
func cachedOf(p *Proxy, keys ...string) (out []string) {
	for _, k := range keys {
		if _, ok := p.cache.Get(k); ok {
			out = append(out, k)
		}
	}
	return out
}

// TestFillThatEvictsBeatsItsVictim: in a full one-shard AU-LRU, a read
// fill that needs room evicts the entry the CLOCK hand reaches first,
// r0, if r0 has not been hit since it was stored; once r0 has been hit,
// the fill must count more reads in the sketch than r0 does.
func TestFillThatEvictsBeatsItsVictim(t *testing.T) {
	t.Run("unhit victim", func(t *testing.T) {
		p, residents := fullStack(t, "cand")
		readN(t, p, "cand", 2)
		if got, want := fmt.Sprint(cachedOf(p, append(residents, "cand")...)), fmt.Sprint(append(residents[1:], "cand")); got != want {
			t.Fatalf("the AU-LRU holds %v, want %v", got, want)
		}
	})
	t.Run("hit victim, colder candidate", func(t *testing.T) {
		p, residents := fullStack(t, "cand")
		for _, k := range residents {
			readN(t, p, k, 1) // a hit: three reads counted
		}
		readN(t, p, "cand", 3)
		if got := fmt.Sprint(cachedOf(p, append(residents, "cand")...)); got != fmt.Sprint(residents) {
			t.Fatalf("the AU-LRU holds %v, want the residents %v", got, residents)
		}
	})
	t.Run("hit victim, hotter candidate", func(t *testing.T) {
		p, residents := fullStack(t, "cand")
		for _, k := range residents {
			readN(t, p, k, 1)
		}
		readN(t, p, "cand", 4)
		if got, want := fmt.Sprint(cachedOf(p, append(residents, "cand")...)), fmt.Sprint(append(residents[1:], "cand")); got != want {
			t.Fatalf("the AU-LRU holds %v, want %v", got, want)
		}
	})
}

// TestSampledHitsWeighTheVictim: a sharded AU-LRU's sketch records one
// hit in hitSample, at weight hitSample, and a fill that needs room is
// weighed against those samples. In a full shard, a resident hit k
// times keeps its slot against a candidate read k/2 times, and loses it
// to one read 2k times.
func TestSampledHitsWeighTheVictim(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0)) // stands still: nothing decays
	const cacheBytes, k = 32 << 20, 2000
	m, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim; c.CacheBytes = cacheBytes })
	if p.hitWeight != hitSample {
		t.Fatalf("hit weight %d, want %d", p.hitWeight, hitSample)
	}
	// Deleting an absent key counts a write in its shard alone, so a
	// miss reports one write only for a key of the resident's shard.
	resident := "resident"
	p.cache.Delete([]byte(resident))
	cand := ""
	for i := 0; cand == ""; i++ {
		if _, _, writes := p.cache.GetAt(fmt.Appendf(nil, "cand%d", i), sim.Now()); writes == 1 {
			cand = fmt.Sprintf("cand%d", i)
		}
	}
	// The resident fills its shard but for two bytes.
	share := cacheBytes / cache.Shards(cacheBytes)
	storeBehind(t, m, p, []byte(resident), make([]byte, share-len(resident)-2))
	storeBehind(t, m, p, []byte(cand), []byte("v"))
	readN(t, p, resident, 2+k) // the second read fills it, the rest hit
	if st := p.Stats(); p.cache.Len() != 1 || st.CacheHits != k {
		t.Fatalf("%d entries cached, %d hits; want the resident hit %d times", p.cache.Len(), st.CacheHits, k)
	}
	readN(t, p, cand, k/2)
	if _, ok := p.cache.Get(cand); ok || p.cache.Len() != 1 {
		t.Fatalf("a candidate read %d times displaced a resident hit %d times", k/2, k)
	}
	reads := k / 2
	for ; reads < 2*k; reads++ {
		if _, ok := p.cache.Get(cand); ok {
			break
		}
		readN(t, p, cand, 1)
	}
	if _, ok := p.cache.Get(cand); !ok || p.cache.Len() != 1 {
		t.Fatalf("a candidate read %d times did not displace a resident hit %d times", reads, k)
	}
	t.Logf("the candidate displaced the resident after %d reads", reads)
}
