package proxy

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/metaserver"
)

func newStack(t *testing.T, quotaRU float64, cfgMut func(*Config)) (*metaserver.Meta, *Proxy) {
	t.Helper()
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{
			ID: fmt.Sprintf("node-%d", i),
		})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{
		Name: "t1", QuotaRU: quotaRU, Partitions: 2, Proxies: 1,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Tenant:      "t1",
		ID:          "p0",
		Meta:        m,
		EnableCache: true,
		ProxyQuota:  quotaRU,
		CacheTTL:    time.Minute,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestProxyPutGet(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	if err := p.Put(bg, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	v, err := p.Get(bg, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestProxyGetMissing(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	if _, err := p.Get(bg, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestProxyDelete(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	p.Put(bg, []byte("k"), []byte("v"), 0)
	if err := p.Delete(bg, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(bg, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestProxyCacheHitsSkipQuota(t *testing.T) {
	// Tiny quota: after it drains, cached reads must still succeed
	// because proxy cache hits bypass the limiter (§4.2).
	_, p := newStack(t, 5, nil)
	if err := p.Put(bg, []byte("hot"), []byte("v"), 0); err != nil {
		t.Fatal(err) // first write fits in the initial burst
	}
	// Warm the proxy cache: the Put was the key's first access and the
	// hotness gate admits on the second, so this Get fetches from the
	// node and caches the value.
	if _, err := p.Get(bg, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	// Drain the quota with writes until throttled.
	for i := 0; i < 100; i++ {
		p.Put(bg, []byte(fmt.Sprintf("w%d", i)), []byte("v"), 0)
	}
	for i := 0; i < 50; i++ {
		if _, err := p.Get(bg, []byte("hot")); err != nil {
			t.Fatalf("cached read throttled: %v", err)
		}
	}
	if p.Stats().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestProxyThrottlesBeyondQuota(t *testing.T) {
	_, p := newStack(t, 10, func(c *Config) { c.EnableCache = false })
	throttled := 0
	for i := 0; i < 200; i++ {
		err := p.Put(bg, []byte("k"), make([]byte, 2048), 0)
		if errors.Is(err, ErrThrottled) {
			throttled++
		}
	}
	if throttled == 0 {
		t.Fatal("proxy never throttled")
	}
	if p.Stats().Rejected == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestProxyRestrictRelaxFromMeta(t *testing.T) {
	m, p := newStack(t, 100, func(c *Config) { c.EnableCache = false })
	// Simulate heavy admitted traffic, then run the monitor: the proxy
	// must be restricted.
	p.reqs.Cell().RU.Add(100000)
	m.MonitorProxyTraffic(time.Second)
	if !p.limiter.Restricted() {
		t.Fatal("meta did not restrict overloaded proxy")
	}
	m.MonitorProxyTraffic(time.Second) // window now ~0 → relax
	if p.limiter.Restricted() {
		t.Fatal("meta did not relax proxy")
	}
}

func TestWindowRUResets(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	p.Put(bg, []byte("k"), make([]byte, 2048), 0)
	first := p.WindowRU()
	if first <= 0 {
		t.Fatalf("WindowRU = %v", first)
	}
	if second := p.WindowRU(); second != 0 {
		t.Fatalf("WindowRU after reset = %v", second)
	}
}

func TestProxyStatsReset(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	p.Put(bg, []byte("k"), []byte("v"), 0)
	p.Get(bg, []byte("k"))
	if p.Stats().Success == 0 {
		t.Fatal("no successes")
	}
	p.ResetStats()
	s := p.Stats()
	if s.Success != 0 || s.CacheHits != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
}

// TestProxyCacheHitRatio: the proxy's own counters tally every AU-LRU
// lookup, a hit and a miss each, and ResetStats zeroes them.
func TestProxyCacheHitRatio(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	if p.Stats().HitRatio() != 0 {
		t.Fatal("a fresh proxy reports a hit ratio")
	}
	p.Put(bg, []byte("k"), []byte("v"), 0)
	p.Get(bg, []byte("k")) // a miss: the key's second access fills the AU-LRU
	p.Get(bg, []byte("k")) // a hit
	if s := p.Stats(); s.CacheHits != 1 || s.CacheMiss != 1 || s.HitRatio() != 0.5 {
		t.Fatalf("after a miss and a hit: %d hits %d misses, ratio %v", s.CacheHits, s.CacheMiss, s.HitRatio())
	}
	p.ResetStats()
	if s := p.Stats(); s.CacheHits+s.CacheMiss != 0 || s.HitRatio() != 0 {
		t.Fatalf("ResetStats left %d hits %d misses", s.CacheHits, s.CacheMiss)
	}
}

func TestFleetRoutesConsistently(t *testing.T) {
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("n%d", i)})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: 100000, Partitions: 2})
	f, err := NewFleet(Config{
		Tenant: "t1", Meta: m, EnableCache: true,
		ProxyQuota: 10000, CacheTTL: time.Minute,
	}, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.groups) != 4 || len(f.Proxies()) != 8 {
		t.Fatalf("fleet shape: %d groups %d proxies", len(f.groups), len(f.Proxies()))
	}
	// The same key always lands in the same group (any member).
	group := map[*Proxy]bool{}
	for i := 0; i < 50; i++ {
		group[f.Route([]byte("stable-key"))] = true
	}
	if len(group) > 2 { // group size = 8/4 = 2
		t.Fatalf("key routed to %d proxies, want ≤2 (one group)", len(group))
	}

	// End-to-end through the fleet.
	if err := f.Put(bg, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get(bg, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("fleet Get = %q, %v", v, err)
	}
	if f.AggregateStats().Success == 0 {
		t.Fatal("aggregate stats empty")
	}
	f.ResetStats()
	if f.AggregateStats().Success != 0 {
		t.Fatal("fleet reset incomplete")
	}
}

func TestFleetGroupClamp(t *testing.T) {
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("nn%d", i)})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: 1000})
	f, err := NewFleet(Config{Tenant: "t1", Meta: m, ProxyQuota: 100}, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.groups) != 2 {
		t.Fatalf("groups = %d, want clamped to 2", len(f.groups))
	}
}

func TestNewProxyRequiresMeta(t *testing.T) {
	if _, err := New(Config{Tenant: "t"}); err == nil {
		t.Fatal("no error without Meta")
	}
}

// TestHotGateAdmitsOnSecondAccess: with the hotness gate at its
// default threshold a key's first access must NOT earn an AU-LRU slot,
// and its second must.
func TestHotGateAdmitsOnSecondAccess(t *testing.T) {
	_, p := newStack(t, 1e9, nil)
	key := []byte("maybe-hot")
	if err := p.Put(bg, key, []byte("v1"), 0); err != nil { // first access
		t.Fatal(err)
	}
	if _, ok := p.cache.Get(string(key)); ok {
		t.Fatal("cold key cached on first access")
	}
	if _, err := p.Get(bg, key); err != nil { // second access crosses the gate
		t.Fatal(err)
	}
	if v, ok := p.cache.Get(string(key)); !ok || string(v) != "v1" {
		t.Fatalf("hot key not cached after second access: %q %v", v, ok)
	}
}

// TestHotGateDisabledCachesEverything: a negative threshold restores
// the legacy cache-everything policy.
func TestHotGateDisabledCachesEverything(t *testing.T) {
	_, p := newStack(t, 1e9, func(c *Config) { c.HotAdmitThreshold = -1 })
	key := []byte("one-shot")
	if err := p.Put(bg, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.cache.Get(string(key)); !ok {
		t.Fatal("ungated proxy did not cache a first-access write")
	}
}

// TestHitTouchWeight: a one-shard AU-LRU records every hit in the
// admission sketch, so the key's count is exact; a sharded one records
// one hit in hitSample at weight hitSample, so the count stays unbiased.
func TestHitTouchWeight(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		weight     uint32
		tolerance  float64 // of the hits
	}{
		{"one shard", 1 << 20, 1, 0},
		{"sharded", 32 << 20, hitSample, 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A clock that stands still: the sketch never decays.
			sim := clock.NewSim(time.Unix(0, 0))
			_, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim; c.CacheBytes = tc.cacheBytes })
			if p.hitWeight != tc.weight {
				t.Fatalf("hit weight %d, want %d", p.hitWeight, tc.weight)
			}
			key := []byte("hot")
			if err := p.Put(bg, key, []byte("v"), 0); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Get(bg, key); err != nil { // the second access fills the AU-LRU
				t.Fatal(err)
			}
			const hits = 8000
			for i := 0; i < hits; i++ {
				if _, err := p.Get(bg, key); err != nil {
					t.Fatal(err)
				}
			}
			if st := p.Stats(); st.CacheHits != hits {
				t.Fatalf("%d hits, want %d", st.CacheHits, hits)
			}
			top := p.hot.TopK()
			if len(top) != 1 || top[0].Key != string(key) {
				t.Fatalf("sketch top-k %+v, want the one key", top)
			}
			recorded := top[0].Count - 2 // the write and the miss
			if math.Abs(recorded-hits) > tc.tolerance*hits {
				t.Fatalf("the sketch recorded %v of %d hits", recorded, hits)
			}
		})
	}
}

// TestHotAdmissionRacingInvalidation: concurrent writes, deletes, and
// reads against a sketch-hot key must leave the AU-LRU coherent with
// the store — an invalidation must never be resurrected by a stale
// gated admission, and the final write must win.
func TestHotAdmissionRacingInvalidation(t *testing.T) {
	_, p := newStack(t, 1e9, nil)
	key := []byte("contested")
	if err := p.Put(bg, key, []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(bg, key); err != nil { // cross the gate: now cached
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch (w + i) % 3 {
				case 0:
					p.Put(bg, key, []byte(fmt.Sprintf("v-%d-%d", w, i)), 0)
				case 1:
					p.Get(bg, key)
				case 2:
					p.Delete(bg, key)
				}
			}
		}(w)
	}
	wg.Wait()
	// Sequential convergence: the last write must be what both the
	// store and any surviving cache entry serve.
	if err := p.Put(bg, key, []byte("final"), 0); err != nil {
		t.Fatal(err)
	}
	if v, err := p.Get(bg, key); err != nil || string(v) != "final" {
		t.Fatalf("Get after race = %q, %v", v, err)
	}
	if v, ok := p.cache.Get(string(key)); ok && string(v) != "final" {
		t.Fatalf("cache incoherent after race: %q", v)
	}
}

// TestProxyHotKeysAggregation: the HOTKEYS path merges per-partition
// data-plane sketches; a dominant key must surface first. Cache off so
// every access reaches the DataNodes' sketches.
func TestProxyHotKeysAggregation(t *testing.T) {
	_, p := newStack(t, 1e9, func(c *Config) { c.EnableCache = false })
	hot := []byte("hot-key")
	if err := p.Put(bg, hot, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := p.Get(bg, hot); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 { // sprinkle colder traffic across the keyspace
			for j := 0; j < 10; j++ {
				p.Get(bg, []byte(fmt.Sprintf("cold-%d", j))) // ErrNotFound still counts as an access
			}
		}
	}
	top, err := p.HotKeys(bg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || string(top[0].Key) != "hot-key" {
		t.Fatalf("HotKeys top = %+v, want hot-key first", top)
	}
	if top[0].Count < 100 {
		t.Fatalf("hot-key count = %v, want a sampled estimate well above cold keys", top[0].Count)
	}
}

// TestHSetMultiOneRoundTrip: a multi-field HSET must cost one DataNode
// read-modify-write (1 node op) regardless of how many pairs the
// command carries — not one round trip per pair.
func TestHSetMultiOneRoundTrip(t *testing.T) {
	m, p := newStack(t, 1e9, func(c *Config) { c.EnableCache = false })
	key := []byte("h")
	if _, err := p.HSet(bg, key, "seed", []byte("s")); err != nil {
		t.Fatal(err)
	}
	opsBefore := int64(0)
	for _, nid := range m.Nodes() {
		n, _ := m.Node(nid)
		opsBefore += n.TenantStats("t1").Success
	}
	fvs := make([]FieldValue, 6)
	for i := range fvs {
		fvs[i] = FieldValue{Field: fmt.Sprintf("f%d", i), Value: []byte("v")}
	}
	added, err := p.HSetMulti(bg, key, fvs)
	if err != nil || added != 6 {
		t.Fatalf("HSetMulti = %d, %v", added, err)
	}
	opsAfter := int64(0)
	for _, nid := range m.Nodes() {
		n, _ := m.Node(nid)
		opsAfter += n.TenantStats("t1").Success
	}
	if got := opsAfter - opsBefore; got != 1 {
		t.Fatalf("node ops for 6-field HSET = %d, want 1 (one write op)", got)
	}
	all, err := p.HGetAll(bg, key)
	if err != nil || len(all) != 7 { // 6 + seed
		t.Fatalf("HGetAll = %d fields, %v", len(all), err)
	}
}

// TestClosedNodeRefundsProxyCharge: a node turning requests away as it
// closes reports datanode.ErrClosed — provably no work done — so the
// tenant's proxy-level charge goes back, like the node's own.
func TestClosedNodeRefundsProxyCharge(t *testing.T) {
	m, p := newStack(t, 100000, func(c *Config) { c.EnableCache = false })
	for _, id := range m.Nodes() {
		n, err := m.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		n.Scheduler().Close()
	}
	if err := p.Put(bg, []byte("k"), []byte("v"), 0); !errors.Is(err, datanode.ErrClosed) {
		t.Fatalf("Put on closing nodes: %v, want datanode.ErrClosed", err)
	}
	if charged, refunded := p.limiter.RUTotals(); charged == 0 || charged != refunded {
		t.Fatalf("proxy ledger charged %v refunded %v, want the charge returned", charged, refunded)
	}
}

// TestProxyTTLIsMetered: TTL is a metadata read charged against the
// proxy quota like any other request, not a free side door.
func TestProxyTTLIsMetered(t *testing.T) {
	// The bucket's whole burst is below one metadata read.
	_, p := newStack(t, 0.01, func(c *Config) { c.EnableCache = false })
	if _, _, err := p.TTL(bg, []byte("k")); !errors.Is(err, ErrThrottled) {
		t.Fatalf("TTL beyond quota: %v, want ErrThrottled", err)
	}
	if p.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", p.Stats().Rejected)
	}
}
