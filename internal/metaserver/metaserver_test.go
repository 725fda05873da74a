package metaserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/partition"
)

func fastNode(t *testing.T, id string) *datanode.Node {
	t.Helper()
	n := datanode.New(datanode.Config{ID: id})
	t.Cleanup(func() { n.Close() })
	return n
}

func newCluster(t *testing.T, nodes int) (*Meta, []*datanode.Node) {
	t.Helper()
	m := New(Config{Replicas: 3})
	t.Cleanup(m.Close)
	var ns []*datanode.Node
	for i := 0; i < nodes; i++ {
		n := fastNode(t, fmt.Sprintf("node-%d", i))
		m.RegisterNode(n)
		ns = append(ns, n)
	}
	return m, ns
}

func TestCreateTenantPlacesReplicas(t *testing.T) {
	m, nodes := newCluster(t, 5)
	ten, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 1000, Partitions: 4, Proxies: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ten.Table.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", ten.Table.NumPartitions())
	}
	// Every partition has 3 distinct hosts.
	total := 0
	for _, route := range ten.Table.Partitions {
		hosts := append([]string{route.Primary}, route.Followers...)
		if len(hosts) != 3 {
			t.Fatalf("route hosts = %v", hosts)
		}
		seen := map[string]bool{}
		for _, h := range hosts {
			if seen[h] {
				t.Fatalf("duplicate host in %v", hosts)
			}
			seen[h] = true
		}
	}
	for _, n := range nodes {
		total += len(n.Replicas())
	}
	if total != 12 { // 4 partitions × 3 replicas
		t.Fatalf("total replicas = %d", total)
	}
}

func TestCreateTenantDuplicate(t *testing.T) {
	m, _ := newCluster(t, 3)
	if _, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateTenantNeedsNodes(t *testing.T) {
	m := New(Config{Replicas: 3})
	defer m.Close()
	m.RegisterNode(fastNode(t, "only"))
	if _, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100}); !errors.Is(err, ErrNotEnoughNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestWritesReplicateToFollowers(t *testing.T) {
	m, _ := newCluster(t, 3)
	ten, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 10000, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	route := ten.Table.Partitions[0]
	primary, _ := m.Node(route.Primary)
	pid := partition.ID{Tenant: "t1", Index: 0}
	if _, err := primary.Put(bg, pid, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	// Replication is async: poll briefly.
	for _, fid := range route.Followers {
		follower, _ := m.Node(fid)
		deadline := time.Now().Add(2 * time.Second)
		for {
			res, err := follower.Get(bg, pid, []byte("k"))
			if err == nil && string(res.Value) == "v" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower %s never received the write: %v", fid, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestRouteFor(t *testing.T) {
	m, _ := newCluster(t, 3)
	m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100, Partitions: 4})
	r, err := m.RouteFor("t1", []byte("some-key"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Primary == "" {
		t.Fatal("empty route")
	}
	if _, err := m.RouteFor("ghost", []byte("k")); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v", err)
	}
}

func TestNodesAndTenantsListing(t *testing.T) {
	m, _ := newCluster(t, 3)
	m.CreateTenant(TenantSpec{Name: "b", QuotaRU: 1})
	m.CreateTenant(TenantSpec{Name: "a", QuotaRU: 1})
	if got := m.Tenants(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Tenants = %v", got)
	}
	if got := m.Nodes(); len(got) != 3 || got[0] != "node-0" {
		t.Fatalf("Nodes = %v", got)
	}
	if _, err := m.Node("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailNodeRepairsReplicas(t *testing.T) {
	m, _ := newCluster(t, 5)
	ten, _ := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 10000, Partitions: 2})
	pid := partition.ID{Tenant: "t1", Index: 0}
	route := ten.Table.Partitions[0]
	primary, _ := m.Node(route.Primary)
	for i := 0; i < 50; i++ {
		primary.Put(bg, pid, []byte(fmt.Sprintf("k%02d", i)), []byte("v"), 0)
	}
	m.FlushReplication() // every write above reached both followers

	// Fail the primary of partition 0.
	if err := m.FailNode(route.Primary); err != nil {
		t.Fatal(err)
	}
	ten2, _ := m.Tenant("t1")
	newRoute := ten2.Table.Partitions[0]
	if newRoute.Primary == route.Primary {
		t.Fatal("failed node still primary")
	}
	hosts := append([]string{newRoute.Primary}, newRoute.Followers...)
	if len(hosts) != 3 {
		t.Fatalf("route after repair = %v", hosts)
	}
	for _, h := range hosts {
		if h == route.Primary {
			t.Fatalf("failed node still routed: %v", hosts)
		}
		n, err := m.Node(h)
		if err != nil {
			t.Fatal(err)
		}
		if !n.HostsReplica(pid) {
			t.Fatalf("host %s missing replica", h)
		}
	}
	// Data must survive on the new primary.
	newPrimary, _ := m.Node(newRoute.Primary)
	res, err := newPrimary.Get(bg, pid, []byte("k00"))
	if err != nil || string(res.Value) != "v" {
		t.Fatalf("data lost after repair: %q, %v", res.Value, err)
	}
}

func TestFailUnknownNode(t *testing.T) {
	m, _ := newCluster(t, 3)
	if err := m.FailNode("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitTenantPartitionsRehashes(t *testing.T) {
	m, _ := newCluster(t, 4)
	ten, _ := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 1000, Partitions: 2})
	// Write 200 keys through the correct primaries.
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		route := ten.Table.RouteFor(key)
		n, _ := m.Node(route.Primary)
		if _, err := n.Put(bg, route.Partition, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SplitTenantPartitions("t1"); err != nil {
		t.Fatal(err)
	}
	ten2, _ := m.Tenant("t1")
	if got := ten2.Table.NumPartitions(); got != 4 {
		t.Fatalf("partitions after split = %d", got)
	}
	if ten2.Quota.Partitions() != 4 {
		t.Fatalf("quota partitions = %d", ten2.Quota.Partitions())
	}
	// Every key must be readable at its new route.
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		route := ten2.Table.RouteFor(key)
		n, _ := m.Node(route.Primary)
		res, err := n.Get(bg, route.Partition, key)
		if err != nil || string(res.Value) != "v" {
			t.Fatalf("key %s unreadable after split (partition %v): %v", key, route.Partition, err)
		}
	}
}

// fakeProxy implements RestrictableProxy for traffic-control tests.
type fakeProxy struct {
	mu         sync.Mutex
	id, tenant string
	ru         float64
	restricted bool
}

func (p *fakeProxy) ProxyID() string    { return p.id }
func (p *fakeProxy) TenantName() string { return p.tenant }
func (p *fakeProxy) Restrict()          { p.mu.Lock(); p.restricted = true; p.mu.Unlock() }
func (p *fakeProxy) Relax()             { p.mu.Lock(); p.restricted = false; p.mu.Unlock() }
func (p *fakeProxy) WindowRU() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.ru
	p.ru = 0
	return v
}
func (p *fakeProxy) isRestricted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restricted
}

func TestMonitorProxyTraffic(t *testing.T) {
	m, _ := newCluster(t, 3)
	m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100, Proxies: 2})
	p1 := &fakeProxy{id: "p1", tenant: "t1"}
	p2 := &fakeProxy{id: "p2", tenant: "t1"}
	m.RegisterProxy(p1)
	m.RegisterProxy(p2)

	// Aggregate 300 RU over 1s window > 100 quota → restrict.
	p1.ru, p2.ru = 200, 100
	m.MonitorProxyTraffic(time.Second)
	if !p1.isRestricted() || !p2.isRestricted() {
		t.Fatal("proxies not restricted despite overage")
	}
	// Next window under quota → relax.
	p1.ru, p2.ru = 10, 10
	m.MonitorProxyTraffic(time.Second)
	if p1.isRestricted() || p2.isRestricted() {
		t.Fatal("proxies not relaxed after traffic subsided")
	}
}
