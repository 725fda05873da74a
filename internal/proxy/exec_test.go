package proxy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/ru"
)

// These tests pin what the executors promise on the paths no other
// guard sees: batch methods return []error, which rucharge cannot
// follow, so a test holds that a batch key which provably did no
// DataNode work gets its own share of the batch charge back; every
// served request feeds the MetaServer's window; and the AU-LRU's active
// update reads the origin through the same cached routes as a request.

// keysOnDistinctPrimaries returns two keys whose partitions have
// different primaries, with the second key's primary node.
func keysOnDistinctPrimaries(t *testing.T, p *Proxy) (a, b []byte, bNode *datanode.Node) {
	t.Helper()
	first := []byte("rk-0")
	ra, _, err := p.routeForKey(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 64; i++ {
		k := []byte(fmt.Sprintf("rk-%d", i))
		rb, _, err := p.routeForKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Primary != ra.Primary {
			n, err := p.cfg.Meta.Node(rb.Primary)
			if err != nil {
				t.Fatal(err)
			}
			return first, k, n
		}
	}
	t.Fatal("the tenant's partitions share one primary")
	return nil, nil, nil
}

// TestBatchRefundsOnlyWhatDidNoWork: in one batch, the key on a node
// turning requests away gets its share back; the key a node answered —
// found, stored, or not found — keeps its charge.
func TestBatchRefundsOnlyWhatDidNoWork(t *testing.T) {
	p := conformStack(t, 1e9, 1e9, nil)
	served, refused, node := keysOnDistinctPrimaries(t, p)
	node.Scheduler().Close()

	charged0, refunded0 := p.limiter.RUTotals()
	_, errs := p.BatchGet(bg, [][]byte{served, refused})
	if !errors.Is(errs[0], ErrNotFound) || !errors.Is(errs[1], datanode.ErrClosed) {
		t.Fatalf("BatchGet errs = %v, want [ErrNotFound, datanode.ErrClosed]", errs)
	}
	charged, refunded := p.limiter.RUTotals()
	if charged-charged0 <= 0 || refunded-refunded0 != (charged-charged0)/2 {
		t.Fatalf("BatchGet charged %v refunded %v, want exactly the refused key's half returned",
			charged-charged0, refunded-refunded0)
	}

	// A write batch charges per value size, so a key's share is its own.
	charged0, refunded0 = charged, refunded
	errs = p.BatchPut(bg, []KV{
		{Key: served, Value: make([]byte, 8192)},
		{Key: refused, Value: make([]byte, 2048)},
	})
	if errs[0] != nil || !errors.Is(errs[1], datanode.ErrClosed) {
		t.Fatalf("BatchPut errs = %v, want [nil, datanode.ErrClosed]", errs)
	}
	charged, refunded = p.limiter.RUTotals()
	if want := ru.WriteRU(2048, 3); refunded-refunded0 != want {
		t.Fatalf("BatchPut charged %v refunded %v, want the refused key's %v returned",
			charged-charged0, refunded-refunded0, want)
	}
	if st := p.Stats(); st.Success != 1 || st.Errors != 3 {
		t.Fatalf("stats = %+v, want 1 success (the stored key) and 3 errors", st)
	}
}

// TestDeleteAndHashTrafficIsRestricted: a tenant whose whole offered
// load is DEL and HSET is as visible to the MetaServer's traffic control
// as one issuing GET and SET: bursting past its quota on the proxy's 2×
// autonomy gets it restricted within one monitoring cycle.
func TestDeleteAndHashTrafficIsRestricted(t *testing.T) {
	m, p := newStack(t, 10, func(c *Config) { c.EnableCache = false })
	// Traffic control sees what the nodes bill, so the burst must really
	// use RU: each HSET stores 2 KiB, three replicas' worth.
	throttled, value := false, make([]byte, 2048)
	for i := 0; i < 1000 && !throttled; i++ {
		key := []byte(fmt.Sprintf("h-%d", i))
		_, err := p.HSet(bg, key, "f", value)
		if err == nil {
			err = p.Delete(bg, key)
		}
		switch {
		case errors.Is(err, ErrThrottled):
			throttled = true
		case err != nil:
			t.Fatal(err)
		}
	}
	if !throttled {
		t.Fatal("the burst never exhausted the proxy bucket")
	}
	m.MonitorProxyTraffic(time.Second)
	if !p.limiter.Restricted() {
		t.Fatal("a tenant bursting past its quota on DEL/HSET alone was not restricted")
	}
}

// TestActiveUpdateRefreshesFromOrigin: an AU-LRU entry hit twice near
// expiry is renewed from the key's primary without a miss, so a value
// the origin acquired behind the cache's back replaces the cached one.
func TestActiveUpdateRefreshesFromOrigin(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	m, p := newStack(t, 1e9, func(c *Config) { c.Clock = sim })
	key := []byte("hot")
	if err := p.Put(bg, key, []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	p.Get(bg, key) // second sketched access: fills the AU-LRU
	p.Get(bg, key) // a hit
	route, _, err := p.routeForKey(key)
	if err != nil {
		t.Fatal(err)
	}
	node, err := m.Node(route.Primary)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.PutAt(bg, route.Partition, route.Epoch, key, []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	sim.Advance(55 * time.Second) // CacheTTL is a minute: inside the refresh window
	missesBefore := p.Stats().CacheMiss
	var v []byte
	// The first hit inside the window marks the entry due, the second
	// renews it, and the hits after the refresh see v2.
	for i := 0; i < 4; i++ {
		if v, err = p.Get(bg, key); err != nil {
			t.Fatal(err)
		}
	}
	if string(v) != "v2" || p.Stats().CacheMiss != missesBefore {
		t.Fatalf("Get = %q with %d new misses, want the refreshed v2 served from the cache",
			v, p.Stats().CacheMiss-missesBefore)
	}
	if n := p.Stats().CacheRefreshes; n != 1 {
		t.Fatalf("Stats counts %d active updates, want 1", n)
	}
	if n := (&Fleet{proxies: []*Proxy{p, p}}).AggregateStats().CacheRefreshes; n != 2 {
		t.Fatalf("a fleet of the proxy twice sums %d active updates, want 2", n)
	}
	p.ResetStats()
	if n := p.Stats().CacheRefreshes; n != 0 {
		t.Fatalf("after ResetStats, Stats counts %d active updates, want 0", n)
	}
}
