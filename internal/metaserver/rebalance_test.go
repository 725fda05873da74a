package metaserver

import (
	"fmt"
	"testing"

	"abase/internal/datanode"
	"abase/internal/partition"
)

// newHeatNode builds a DataNode matching heatCluster's configuration,
// for mid-test pool growth.
func newHeatNode(t *testing.T, id string) *datanode.Node {
	t.Helper()
	n := datanode.New(datanode.Config{ID: id})
	t.Cleanup(func() { n.Close() })
	return n
}

// keyForPartition finds a key that hashes into partition idx of an
// nparts-partition tenant.
func keyForPartition(t *testing.T, nparts, idx int) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := []byte(fmt.Sprintf("rb-key-%d", i))
		if partition.PartitionOf(key, nparts) == idx {
			return key
		}
	}
	t.Fatalf("no key found for partition %d/%d", idx, nparts)
	return nil
}

// rebalanceCluster builds a 4-node cluster with an 8-partition tenant,
// makes two partitions sharing a primary node hot (a single hot
// replica is an unsplittable peak the algorithm rightly refuses to
// chase), then registers a fifth, empty node — the textbook imbalance
// RebalanceOnce exists to fix.
func rebalanceCluster(t *testing.T) (*Meta, string) {
	t.Helper()
	m, _ := heatCluster(t, 4, 0, 0, 0)
	const nparts = 8
	if _, err := m.CreateTenant(TenantSpec{Name: "rb", QuotaRU: 1e9, Partitions: nparts}); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, nparts)
	for p := 0; p < nparts; p++ {
		keys[p] = keyForPartition(t, nparts, p)
		if err := putThroughPrimary(m, "rb", keys[p]); err != nil {
			t.Fatal(err)
		}
	}
	// Find a node hosting at least two primaries and hammer both of
	// its partitions.
	ten, err := m.Tenant("rb")
	if err != nil {
		t.Fatal(err)
	}
	byPrimary := map[string][]int{}
	for i, route := range ten.Table.Partitions {
		byPrimary[route.Primary] = append(byPrimary[route.Primary], i)
	}
	hammered := false
	for _, parts := range byPrimary {
		if len(parts) < 2 {
			continue
		}
		hammer(t, m, "rb", keys[parts[0]], 6000)
		hammer(t, m, "rb", keys[parts[1]], 5000)
		hammered = true
		break
	}
	if !hammered {
		t.Fatal("no node hosts two primaries; cannot stage heat imbalance")
	}
	fresh := newHeatNode(t, "heat-node-fresh")
	m.RegisterNode(fresh)
	return m, "heat-node-fresh"
}

func TestRebalanceOnceMovesReplicasToFreshNode(t *testing.T) {
	m, fresh := rebalanceCluster(t)
	// Theta is an absolute utilization threshold; against the default
	// 100k RU/s node capacity the hammered heat is a few percent, so
	// the division band must be finer than that.
	applied, err := m.RebalanceOnce(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatal("no migrations applied against a hot 4-node pool with a fresh empty node")
	}

	// Every applied migration must be reflected in the route table,
	// and every routed host must actually host its replica.
	ten, err := m.Tenant("rb")
	if err != nil {
		t.Fatal(err)
	}
	hosted := 0
	for _, route := range ten.Table.Partitions {
		hosts := append([]string{route.Primary}, route.Followers...)
		seen := map[string]bool{}
		for _, h := range hosts {
			if seen[h] {
				t.Fatalf("partition %s routed twice to %s", route.Partition, h)
			}
			seen[h] = true
			n, err := m.Node(h)
			if err != nil {
				t.Fatalf("route names unknown node %s: %v", h, err)
			}
			if !n.HostsReplica(route.Partition) {
				t.Fatalf("%s routed to %s but the node does not host it", route.Partition, h)
			}
			if h == fresh {
				hosted++
			}
		}
	}
	if hosted == 0 {
		t.Fatal("fresh node received no replicas")
	}

	// Acked data must survive the moves: every partition's seed key
	// reads back through its (possibly new) primary.
	for p := 0; p < len(ten.Table.Partitions); p++ {
		key := keyForPartition(t, len(ten.Table.Partitions), p)
		route := ten.Table.RouteFor(key)
		n, err := m.Node(route.Primary)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Get(bg, route.Partition, key); err != nil {
			t.Fatalf("key %s unreadable after rebalance: %v", key, err)
		}
	}
}

func TestRebalanceOnceNoopOnBalancedPool(t *testing.T) {
	m, ns := heatCluster(t, 3, 0, 0, 0)
	_ = ns
	if _, err := m.CreateTenant(TenantSpec{Name: "calm", QuotaRU: 1e6, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	// Replicas == nodes: every node hosts every partition, so no move
	// is even placeable; a balanced pool must not churn.
	applied, err := m.RebalanceOnce(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 {
		t.Fatalf("balanced pool migrated %d replicas", len(applied))
	}
}

// TestMoversRejectDownNodes pins the mover gates: a migration whose
// backfill target (or source) is down must fail up front, leaving the
// route table untouched and no replica stranded on the down node. A
// half-applied move used to leave a hosted-but-unrouted replica that
// poisoned the next repair pass ("replica already hosted").
func TestMoversRejectDownNodes(t *testing.T) {
	m, _ := newCluster(t, 5)
	ten, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	route := ten.Table.Partitions[0]
	pid := route.Partition
	hosts := map[string]bool{route.Primary: true}
	for _, f := range route.Followers {
		hosts[f] = true
	}
	spare := ""
	for i := 0; i < 5; i++ {
		if id := fmt.Sprintf("node-%d", i); !hosts[id] {
			spare = id
			break
		}
	}
	if spare == "" {
		t.Fatal("setup: no spare node")
	}
	target := nodeByID(t, m, spare)
	target.SetDown(true)

	if err := m.movePrimary("t1", 0, route.Primary, spare); err == nil {
		t.Fatal("movePrimary onto a down node succeeded")
	}
	if err := m.moveFollower("t1", 0, route.Followers[0], spare); err == nil {
		t.Fatal("moveFollower onto a down node succeeded")
	}
	if target.HostsReplica(pid) {
		t.Fatal("down node was left hosting a replica")
	}
	after, err := m.Tenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	got := after.Table.Partitions[0]
	if got.Primary != route.Primary || len(got.Followers) != len(route.Followers) {
		t.Fatalf("route changed by rejected moves: %+v -> %+v", route, got)
	}

	// A down *source* is equally rejected (its data cannot stream).
	target.SetDown(false)
	src := nodeByID(t, m, route.Followers[0])
	src.SetDown(true)
	if err := m.moveFollower("t1", 0, route.Followers[0], spare); err == nil {
		t.Fatal("moveFollower off a down node succeeded")
	}
	if target.HostsReplica(pid) {
		t.Fatal("rejected move left a replica on the target")
	}
}

// TestRebalanceSkipsDownNode drives the gate at the RebalanceOnce
// level: with the only attractive (empty) node marked down, the pass
// must not move anything onto it; once revived, the moves happen.
func TestRebalanceSkipsDownNode(t *testing.T) {
	m, fresh := rebalanceCluster(t)
	if err := m.MarkNodeDown(fresh); err != nil {
		t.Fatal(err)
	}
	applied, err := m.RebalanceOnce(0.001)
	if err != nil {
		t.Fatal(err)
	}
	for _, mig := range applied {
		if mig.To == fresh || mig.From == fresh {
			t.Fatalf("migration %v touched the down node", mig)
		}
	}
	if n := nodeByID(t, m, fresh); len(n.Replicas()) != 0 {
		t.Fatal("down node received replicas")
	}

	// Revive it; the next pass uses it.
	m.MonitorNodeHealth()
	applied, err = m.RebalanceOnce(0.001)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, mig := range applied {
		if mig.To == fresh {
			moved = true
		}
	}
	if !moved {
		t.Fatal("revived node attracted no migrations")
	}
}

func TestParseReplicaID(t *testing.T) {
	cases := []struct {
		id, tenant string
		idx, rep   int
		ok         bool
	}{
		{"t1/3/0", "t1", 3, 0, true},
		{"t1/0/2", "t1", 0, 2, true},
		{"other/0/1", "t1", 0, 0, false},
		{"t1/x/y", "t1", 0, 0, false},
		{"t1", "t1", 0, 0, false},
	}
	for _, tc := range cases {
		idx, rep, ok := parseReplicaID(tc.id, tc.tenant)
		if ok != tc.ok || (ok && (idx != tc.idx || rep != tc.rep)) {
			t.Errorf("parseReplicaID(%q, %q) = (%d, %d, %v), want (%d, %d, %v)",
				tc.id, tc.tenant, idx, rep, ok, tc.idx, tc.rep, tc.ok)
		}
	}
}
