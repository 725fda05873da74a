package proxy

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"abase/internal/datanode"
	"abase/internal/metaserver"
)

// newWideStack is newStack with a 5-node pool, so splits and repairs
// can re-place replicas while one node is down.
func newWideStack(t *testing.T, cfgMut func(*Config)) (*metaserver.Meta, *Proxy) {
	t.Helper()
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 5; i++ {
		n := datanode.New(datanode.Config{
			ID:   fmt.Sprintf("wide-node-%d", i),
			Cost: datanode.CostModel{CPUTime: 1, IOReadTime: 1, IOWriteTime: 1},
		})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{
		Name: "t1", QuotaRU: 1e9, Partitions: 2, Proxies: 1,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tenant: "t1", ID: "p0", Meta: m, ProxyQuota: 1e9}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

// killPrimary takes down the primary of the partition owning key and
// returns the node and its route.
func killPrimary(t *testing.T, m *metaserver.Meta, key []byte) *datanode.Node {
	t.Helper()
	route, err := m.RouteFor("t1", key)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Node(route.Primary)
	if err != nil {
		t.Fatal(err)
	}
	n.SetDown(true)
	return n
}

// TestProxyRetriesAfterFailover checks the bounded retry loop end to
// end: the primary dies, the first attempt reports the suspect (which
// fails the node over), and the single retry lands on the promoted
// follower — the client sees one successful call, no error.
func TestProxyRetriesAfterFailover(t *testing.T) {
	m, p := newStack(t, 1e9, nil)
	key := []byte("failover-key")
	if err := p.Put(bg, key, []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	m.FlushReplication()
	killPrimary(t, m, key)

	// With DownAfterProbes=2 the first failed call's suspect report is
	// probe one; this extra report is probe two, completing failover.
	route, _ := m.RouteFor("t1", key)
	m.ReportNodeSuspect(route.Primary)

	// One client call: internal retry must absorb the dead primary.
	if err := p.Put(bg, key, []byte("v2"), 0); err != nil {
		t.Fatalf("write after failover should succeed via retry, got %v", err)
	}
	got, err := p.Get(bg, key)
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

// TestProxyBatchRetriesAfterFailover exercises the batch path's retry
// pass under a mid-batch failover.
func TestProxyBatchRetriesAfterFailover(t *testing.T) {
	m, p := newStack(t, 1e9, nil)
	var keys [][]byte
	var kvs []KV
	for i := 0; i < 32; i++ {
		k := []byte(fmt.Sprintf("bk-%03d", i))
		keys = append(keys, k)
		kvs = append(kvs, KV{Key: k, Value: []byte("v")})
	}
	for _, err := range p.BatchPut(bg, kvs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	m.FlushReplication()

	dead := killPrimary(t, m, keys[0])
	m.ReportNodeSuspect(dead.ID()) // probe one; the batch's own report is probe two

	values, errs := p.BatchGet(bg, keys)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("key %s failed after failover: %v", keys[i], err)
		}
		if string(values[i]) != "v" {
			t.Fatalf("key %s = %q", keys[i], values[i])
		}
	}
}

// TestFollowerReadsServeDuringOutage is the follower-read guarantee:
// with the primary down and NO failover yet, ReadFollower still
// answers while ReadPrimary fails.
func TestFollowerReadsServeDuringOutage(t *testing.T) {
	m, p := newStack(t, 1e9, func(c *Config) { c.EnableCache = false })
	key := []byte("follower-key")
	if err := p.Put(bg, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	m.FlushReplication() // the value is on the followers
	killPrimary(t, m, key)

	if _, err := p.GetPref(bg, key, ReadPrimary); !errors.Is(err, datanode.ErrNodeDown) {
		t.Fatalf("primary read during outage: err=%v, want ErrNodeDown", err)
	}
	got, err := p.GetPref(bg, key, ReadFollower)
	if err != nil || string(got) != "v" {
		t.Fatalf("follower read during outage = %q, %v", got, err)
	}
}

// TestFollowerReadStalenessBound checks the replication-position gate:
// a follower that missed up to DefaultMaxFollowerLag writes still
// serves a follower read, and one that missed more is skipped in favor
// of the primary.
func TestFollowerReadStalenessBound(t *testing.T) {
	m, p := newStack(t, 1e9, func(c *Config) { c.EnableCache = false })
	key := []byte("lag-key")
	route, err := m.RouteFor("t1", key)
	if err != nil {
		t.Fatal(err)
	}
	var followers []*datanode.Node
	for _, f := range route.Followers {
		n, _ := m.Node(f)
		followers = append(followers, n)
	}
	if err := p.Put(bg, key, []byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	m.FlushReplication()
	// missWrites writes the key writes more times with both followers
	// down, so they miss every one of those writes.
	written := 0
	missWrites := func(writes int) {
		t.Helper()
		for _, n := range followers {
			n.SetDown(true)
		}
		for end := written + writes; written < end; written++ {
			if err := p.Put(bg, key, []byte(fmt.Sprintf("v%d", written)), 0); err != nil {
				t.Fatal(err)
			}
		}
		m.FlushReplication()
		for _, n := range followers {
			n.SetDown(false)
		}
	}

	// Within the bound: a follower serves the read, with the value it
	// holds.
	missWrites(4)
	if got, err := p.GetPref(bg, key, ReadFollower); err != nil || string(got) != "base" {
		t.Fatalf("follower 4 writes behind read %q, %v (want base from a follower)", got, err)
	}
	// Past it: the read must come from the primary and see the newest
	// value.
	missWrites(DefaultMaxFollowerLag)
	want := fmt.Sprintf("v%d", written-1)
	if got, err := p.GetPref(bg, key, ReadFollower); err != nil || string(got) != want {
		t.Fatalf("follower %d writes behind read %q, %v (want %s from the primary)", written, got, err, want)
	}
}

// TestStaleEpochWriteFenced drives a write with a stale cached route
// directly at the data plane: the old primary, demoted by failover,
// must reject it with a typed error the proxy understands.
func TestStaleEpochWriteFenced(t *testing.T) {
	m, p := newStack(t, 1e9, nil)
	key := []byte("fence-key")
	if err := p.Put(bg, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	route, _ := m.RouteFor("t1", key)
	old, _ := m.Node(route.Primary)
	if err := m.MarkNodeDown(route.Primary); err != nil {
		t.Fatal(err)
	}
	// The demoted (still-reachable) primary fences epoch-stamped and
	// plain writes alike.
	if _, err := old.PutAt(bg, route.Partition, route.Epoch, key, []byte("stale"), 0); !errorsIsAny(err, datanode.ErrNotPrimary, datanode.ErrStaleEpoch) {
		t.Fatalf("stale-epoch write at demoted primary: err=%v", err)
	}
	if !retryableRouteErr(datanode.ErrNotPrimary) || !retryableRouteErr(datanode.ErrStaleEpoch) {
		t.Fatal("fencing errors must be retryable route errors")
	}
	// The proxy's own path still works (retry redirects to the new
	// primary).
	if err := p.Put(bg, key, []byte("v2"), 0); err != nil {
		t.Fatalf("proxy write after demotion: %v", err)
	}
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// TestRoutingRaceFailoverSplitScan runs failover promotions and a
// partition split concurrently with MGET and SCAN traffic under the
// race detector: no lost keys, no stuck cursors, no data races.
func TestRoutingRaceFailoverSplitScan(t *testing.T) {
	m, p := newWideStack(t, nil)
	const n = 200
	var keys [][]byte
	var kvs []KV
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("race-%04d", i))
		keys = append(keys, k)
		kvs = append(kvs, KV{Key: k, Value: []byte("v")})
	}
	for _, err := range p.BatchPut(bg, kvs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	m.FlushReplication()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Reader: MGET the whole keyspace in slices, requiring every key
	// to stay readable (retry-level guarantees; transient unavailable
	// is allowed only while the killed node has no promoted successor,
	// which FlushReplication+MarkNodeDown below makes atomic enough
	// that the bounded retry hides it).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			values, errs := p.BatchGet(bg, keys)
			for i := range errs {
				if errs[i] == nil && string(values[i]) != "v" {
					t.Errorf("key %s corrupted: %q", keys[i], values[i])
					return
				}
			}
		}
	}()

	// Scanner: full cursor traversals; every cursor chain must
	// terminate and never error out entirely.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cursor := ""
			for pages := 0; pages < 10_000; pages++ {
				page, err := p.Scan(bg, cursor, ScanOptions{Count: 64, KeysOnly: true})
				if err != nil {
					break // transient mid-failover error: restart traversal
				}
				if page.Cursor == "" {
					break
				}
				cursor = page.Cursor
			}
		}
	}()

	// Chaos: kill a primary (followers get promoted), revive it, and
	// split the tenant's partitions, all while traffic runs.
	route, _ := m.RouteFor("t1", keys[0])
	victim, _ := m.Node(route.Primary)
	victim.SetDown(true)
	if err := m.MarkNodeDown(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.SplitTenantPartitions("t1"); err != nil {
		t.Fatal(err)
	}
	victim.SetDown(false)
	m.MonitorNodeHealth() // revive + fence
	if err := m.SplitTenantPartitions("t1"); err != nil {
		t.Fatal(err)
	}

	close(stop)
	wg.Wait()

	// After the dust settles: no lost keys (point reads)...
	for _, k := range keys {
		if v, err := p.Get(bg, k); err != nil || string(v) != "v" {
			t.Fatalf("key %s lost after chaos: %q, %v", k, v, err)
		}
	}
	// ...and a full scan still visits every key (no stuck cursor).
	seen := map[string]bool{}
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10_000 {
			t.Fatal("cursor did not terminate")
		}
		page, err := p.Scan(bg, cursor, ScanOptions{Count: 64, KeysOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range page.Keys {
			seen[string(k)] = true
		}
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	for _, k := range keys {
		if !seen[string(k)] {
			t.Fatalf("scan after chaos missed key %s", k)
		}
	}
}
