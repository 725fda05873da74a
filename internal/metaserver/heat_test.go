package metaserver

import (
	"fmt"
	"testing"

	"abase/internal/datanode"
)

// heatCluster is newCluster with the heat monitor armed.
func heatCluster(t *testing.T, nodes int, threshold float64, windows, maxParts int) (*Meta, []*datanode.Node) {
	t.Helper()
	m := New(Config{
		Replicas:               3,
		HeatSplitThreshold:     threshold,
		HeatSplitWindows:       windows,
		HeatSplitMaxPartitions: maxParts,
	})
	t.Cleanup(m.Close)
	var ns []*datanode.Node
	for i := 0; i < nodes; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("heat-node-%d", i)})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
		ns = append(ns, n)
	}
	return m, ns
}

// hammer drives reads at one key through its primary so the hosting
// replica's heat meter sees sustained load.
func hammer(t *testing.T, m *Meta, tenant string, key []byte, ops int) {
	t.Helper()
	ten, err := m.Tenant(tenant)
	if err != nil {
		t.Fatal(err)
	}
	route := ten.Table.RouteFor(key)
	n, err := m.Node(route.Primary)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		if _, err := n.Get(bg, route.Partition, key); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPartitionHeatsSamplesPrimaries(t *testing.T) {
	m, _ := heatCluster(t, 4, 0, 0, 0)
	if _, err := m.CreateTenant(TenantSpec{Name: "ht", QuotaRU: 1e9, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	key := []byte("the-hot-one")
	if err := putThroughPrimary(m, "ht", key); err != nil {
		t.Fatal(err)
	}
	hammer(t, m, "ht", key, 4000)

	heats, err := m.PartitionHeats("ht")
	if err != nil {
		t.Fatal(err)
	}
	if len(heats) != 2 {
		t.Fatalf("heats = %d entries, want 2", len(heats))
	}
	ten, _ := m.Tenant("ht")
	hotIdx := ten.Table.RouteFor(key).Partition.Index
	var hot, cold float64
	for _, h := range heats {
		if h.Index == hotIdx {
			hot = h.Heat
		} else {
			cold = h.Heat
		}
	}
	if hot < 100 {
		t.Fatalf("hot partition heat = %v, want sustained ops/sec", hot)
	}
	if cold >= hot/10 {
		t.Fatalf("cold partition heat %v not well below hot %v", cold, hot)
	}
	max, err := m.HottestPartition("ht")
	if err != nil || max.Index != hotIdx {
		t.Fatalf("HottestPartition = %+v, %v; want index %d", max, err, hotIdx)
	}
	if _, err := m.PartitionHeats("ghost"); err == nil {
		t.Fatal("PartitionHeats on unknown tenant succeeded")
	}
}

// putThroughPrimary seeds one key at its primary replica.
func putThroughPrimary(m *Meta, tenant string, key []byte) error {
	ten, err := m.Tenant(tenant)
	if err != nil {
		return err
	}
	route := ten.Table.RouteFor(key)
	n, err := m.Node(route.Primary)
	if err != nil {
		return err
	}
	_, err = n.Put(bg, route.Partition, key, []byte("v"), 0)
	return err
}

// TestMonitorPartitionHeatSplitsAfterSustainedHeat: the doubling split
// fires only after HeatSplitWindows consecutive over-threshold cycles,
// and the data survives the rehash.
func TestMonitorPartitionHeatSplitsAfterSustainedHeat(t *testing.T) {
	m, _ := heatCluster(t, 4, 50, 2, 0)
	if _, err := m.CreateTenant(TenantSpec{Name: "ht", QuotaRU: 1e9, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	key := []byte("sustained")
	if err := putThroughPrimary(m, "ht", key); err != nil {
		t.Fatal(err)
	}

	hammer(t, m, "ht", key, 3000)
	if split := m.MonitorPartitionHeat(); len(split) != 0 {
		t.Fatalf("split on first over-threshold cycle: %v (want sustained heat only)", split)
	}
	hammer(t, m, "ht", key, 3000)
	split := m.MonitorPartitionHeat()
	if len(split) != 1 || split[0] != "ht" {
		t.Fatalf("second cycle split = %v, want [ht]", split)
	}
	if n, _ := m.NumPartitions("ht"); n != 4 {
		t.Fatalf("partitions = %d after auto split, want 4", n)
	}
	// The rehash moved the key; it must still be readable at its new
	// route, and the fresh replicas start with cooled meters — the very
	// next cycle must not split again.
	ten, _ := m.Tenant("ht")
	route := ten.Table.RouteFor(key)
	n, _ := m.Node(route.Primary)
	if res, err := n.Get(bg, route.Partition, key); err != nil || string(res.Value) != "v" {
		t.Fatalf("key unreadable after auto split: %v", err)
	}
	if split := m.MonitorPartitionHeat(); len(split) != 0 {
		t.Fatalf("immediate re-split without renewed sustained heat: %v", split)
	}
}

// TestMonitorPartitionHeatRespectsCapAndZeroThreshold: splitting never
// exceeds HeatSplitMaxPartitions, and a zero threshold disables the
// monitor outright.
func TestMonitorPartitionHeatRespectsCapAndZeroThreshold(t *testing.T) {
	m, _ := heatCluster(t, 4, 50, 1, 2) // cap: already at 2 partitions
	if _, err := m.CreateTenant(TenantSpec{Name: "capped", QuotaRU: 1e9, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	if err := putThroughPrimary(m, "capped", key); err != nil {
		t.Fatal(err)
	}
	for cy := 0; cy < 3; cy++ {
		hammer(t, m, "capped", key, 3000)
		if split := m.MonitorPartitionHeat(); len(split) != 0 {
			t.Fatalf("split beyond HeatSplitMaxPartitions: %v", split)
		}
	}
	if n, _ := m.NumPartitions("capped"); n != 2 {
		t.Fatalf("partitions = %d, want capped at 2", n)
	}

	m2, _ := heatCluster(t, 4, 0, 0, 0) // zero threshold: monitor disabled
	if _, err := m2.CreateTenant(TenantSpec{Name: "off", QuotaRU: 1e9, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if err := putThroughPrimary(m2, "off", key); err != nil {
		t.Fatal(err)
	}
	hammer(t, m2, "off", key, 3000)
	if split := m2.MonitorPartitionHeat(); split != nil {
		t.Fatalf("disabled monitor split: %v", split)
	}
}

// TestLoadModelCarriesHeat: the rescheduler pool built from the live
// cluster must attribute observed heat to primary replicas only, so
// ReschedulePass can balance it.
func TestLoadModelCarriesHeat(t *testing.T) {
	m, _ := heatCluster(t, 4, 0, 0, 0)
	if _, err := m.CreateTenant(TenantSpec{Name: "lm", QuotaRU: 1e9, Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	key := []byte("warm")
	if err := putThroughPrimary(m, "lm", key); err != nil {
		t.Fatal(err)
	}
	hammer(t, m, "lm", key, 4000)

	pool := m.LoadModel()
	var primHeat, followerHeat float64
	var replicas int
	for _, n := range pool.Nodes() {
		for _, re := range n.Replicas() {
			replicas++
			// Replica IDs are tenant/partition/index; index 0 is the primary.
			if re.ID[len(re.ID)-1] == '0' {
				primHeat += re.Heat
			} else {
				followerHeat += re.Heat
			}
		}
	}
	if replicas != 6 { // 2 partitions × 3 replicas
		t.Fatalf("model replicas = %d, want 6", replicas)
	}
	if primHeat < 100 {
		t.Fatalf("primary heat in model = %v, want the hammered load", primHeat)
	}
	if followerHeat != 0 {
		t.Fatalf("follower heat = %v, want 0 (followers serve no client reads)", followerHeat)
	}
}
