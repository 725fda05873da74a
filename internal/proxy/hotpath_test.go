package proxy

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/metaserver"
)

// fastStack is a proxy of tenant t1 over three nodes on clk with every
// simulated cost off. cfg supplies the proxy's own settings.
func fastStack(tb testing.TB, clk clock.Clock, cfg Config) *Proxy {
	tb.Helper()
	return nodeStack(tb, clk, datanode.Config{}, cfg)
}

// nodeStack is fastStack over nodes configured as node, each with its
// own ID and clk.
func nodeStack(tb testing.TB, clk clock.Clock, node datanode.Config, cfg Config) *Proxy {
	tb.Helper()
	m := metaserver.New(metaserver.Config{Replicas: 3, Clock: clk})
	tb.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		node.ID, node.Clock = fmt.Sprintf("node-%d", i), clk
		n := datanode.New(node)
		tb.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 2, Proxies: 1}); err != nil {
		tb.Fatal(err)
	}
	cfg.Tenant, cfg.ID, cfg.Meta, cfg.Clock = "t1", "p0", m, clk
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// countingClock is the real clock, counting every read of "now" (Now
// and Since).
type countingClock struct {
	clock.Real
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Real.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Real.Since(t)
}

// TestClockReadsPerRequest: each plane reads the clock once when a
// request arrives and once when it completes, and hands the arrival time
// to everything in between that needs "now" — the proxy's hot-key sketch,
// AU-LRU expiry check and quota, the node's heat meter, sketch and
// partition quota. Only the engine's TTL check on a node-cache miss
// still reads its own clock. An AU-LRU fill or write-through stamps its
// expiry from the proxy's arrival time. A write's TTL becomes a deadline
// at the arrival time the node already read, and the followers store
// that deadline as it is, so a replicated SET EX reads the clock no more
// often than a SET.
func TestClockReadsPerRequest(t *testing.T) {
	clk := &countingClock{}
	// A key earns its AU-LRU slot on its third access, so the second is a
	// GET that reaches a node and leaves the cache alone.
	p := fastStack(t, clk, Config{
		EnableCache: true, ProxyQuota: 1e9, CacheTTL: time.Minute,
		HotAdmitThreshold: 3,
	})
	// reads runs op and returns how many clock reads it took.
	// Replication reads no clock, so the count is the request's.
	reads := func(op func() error) int64 {
		t.Helper()
		before := clk.reads.Load()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return clk.reads.Load() - before
	}
	get := func(k []byte) func() error {
		return func() error { _, err := p.Get(bg, k); return err }
	}
	var set, nodeGet, fillGet int64
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		set = max(set, reads(func() error { return p.Put(bg, k, []byte("v"), 0) }))
		nodeGet = max(nodeGet, reads(get(k)))
		fillGet = max(fillGet, reads(get(k)))
		hits := p.Stats().CacheHits
		if got := reads(get(k)); got != 2 {
			t.Errorf("GET served from the AU-LRU read the clock %d times, want 2", got)
		}
		if p.Stats().CacheHits != hits+1 {
			t.Fatalf("the fourth access of %s was not an AU-LRU hit", k)
		}
	}
	t.Logf("clock reads at most: SET %d, GET at a node %d, GET filling the AU-LRU %d", set, nodeGet, fillGet)
	if set > 4 {
		t.Errorf("a SET read the clock up to %d times, want at most 4", set)
	}
	if nodeGet > 4 {
		t.Errorf("a GET that reached a node read the clock up to %d times, want at most 4", nodeGet)
	}
	if fillGet > 4 {
		t.Errorf("a GET that reached a node and filled the AU-LRU read the clock up to %d times, want at most 4", fillGet)
	}
	// A SET to a key the AU-LRU holds writes the value through, its TTL
	// counted from the SET's arrival; a SET to a key it does not hold
	// leaves the cache alone (a first write does not pass the hotness
	// gate). The fewest reads of each compares the two paths.
	cachedSet, coldSet := int64(1<<62), int64(1<<62)
	for i := 0; i < 64; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		cachedSet = min(cachedSet, reads(func() error { return p.Put(bg, k, []byte("v2"), 0) }))
		coldSet = min(coldSet, reads(func() error { return p.Put(bg, []byte(fmt.Sprintf("cold-%03d", i)), []byte("v"), 0) }))
		hits := p.Stats().CacheHits
		if v, err := p.Get(bg, k); err != nil || string(v) != "v2" || p.Stats().CacheHits != hits+1 {
			t.Fatalf("GET %s after the write-through = %q, %v, hit %v; want v2 from the AU-LRU", k, v, err, p.Stats().CacheHits == hits+1)
		}
	}
	t.Logf("clock reads at fewest: SET writing through the AU-LRU %d, SET to an uncached key %d", cachedSet, coldSet)
	if cachedSet > coldSet {
		t.Errorf("a SET writing through the AU-LRU read the clock %d times, a SET to an uncached key %d", cachedSet, coldSet)
	}
	// Followers apply on the fabric's goroutines; FlushReplication waits
	// for them, so their reads land in the count too. The fewest reads of
	// each kind keeps a stray background read out of the comparison.
	replicated := func(k string, ttl time.Duration) func() error {
		return func() error {
			err := p.Put(bg, []byte(k), []byte("v"), ttl)
			p.cfg.Meta.FlushReplication()
			return err
		}
	}
	flushedSet, flushedSetEX := int64(1<<62), int64(1<<62)
	for i := 0; i < 64; i++ {
		flushedSet = min(flushedSet, reads(replicated(fmt.Sprintf("plain-%03d", i), 0)))
		flushedSetEX = min(flushedSetEX, reads(replicated(fmt.Sprintf("ex-%03d", i), time.Hour)))
	}
	t.Logf("clock reads at fewest, replication included: SET %d, SET EX %d", flushedSet, flushedSetEX)
	if flushedSetEX > flushedSet {
		t.Errorf("a replicated SET EX read the clock %d times, a replicated SET %d", flushedSetEX, flushedSet)
	}
}

// BenchmarkProxyGetHit times a GET served from the AU-LRU, from as many
// callers as -cpu gives it. The key set is small enough that every key
// has passed the hotness gate before timing starts (thousands of keys
// touched twice each would sit below it once the sketch debiases them),
// so every timed GET is a hit.
func BenchmarkProxyGetHit(b *testing.B) {
	p := fastStack(b, clock.Real{}, Config{EnableCache: true, ProxyQuota: 1e9, CacheTTL: time.Hour})
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		if err := p.Put(bg, keys[i], []byte("value"), 0); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ { // the second access fills, the third hits
			if _, err := p.Get(bg, keys[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	hits := p.Stats().CacheHits
	if hits != int64(len(keys)) {
		b.Fatalf("%d of %d warm-up GETs hit the AU-LRU, want every key's second GET", hits, len(keys))
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) // callers start on different keys
		for ; pb.Next(); i++ {
			if _, err := p.Get(bg, keys[i%uint64(len(keys))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if got := p.Stats().CacheHits - hits; got != int64(b.N) {
		b.Fatalf("%d of %d timed GETs hit the AU-LRU", got, b.N)
	}
}
