package abase

import (
	"fmt"
	"sync"
	"testing"
)

// TestPoolResize exercises the autoscaler's physical levers: AddNode
// grows the pool mid-run, RemoveNode gracefully decommissions a node
// hosting live data, and no acknowledged write is lost across either.
func TestPoolResize(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 4, Replicas: 3})
	tenant, err := c.CreateTenant(TenantSpec{Name: "rsz", QuotaRU: 1e6, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	cl := tenant.Client()

	const keys = 200
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("rsz-key-%03d", i)
		if err := cl.Set(bg, []byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
	}

	n, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Nodes()); got != 5 {
		t.Fatalf("after AddNode: %d nodes, want 5", got)
	}
	if n.ID() != "dn-004" {
		t.Fatalf("new node id %s, want dn-004", n.ID())
	}

	// Decommission a node that actually hosts replicas (any of the
	// original four does; with 4 partitions × 3 replicas over 4 nodes
	// every original node hosts several).
	victim := c.Nodes()[0].ID()
	if err := c.RemoveNode(victim); err != nil {
		t.Fatalf("RemoveNode(%s): %v", victim, err)
	}
	if got := len(c.Nodes()); got != 4 {
		t.Fatalf("after RemoveNode: %d nodes, want 4", got)
	}

	// Every acknowledged write must still read back.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("rsz-key-%03d", i)
		v, err := cl.Get(bg, []byte(k))
		if err != nil || string(v) != "v-"+k {
			t.Fatalf("Get %s after decommission = %q, %v", k, v, err)
		}
	}

	// Routes must not reference the decommissioned node.
	view, err := c.Meta.RoutingView("rsz")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range view.Partitions {
		hosts := append([]string{route.Primary}, route.Followers...)
		for _, h := range hosts {
			if h == victim {
				t.Fatalf("route for %s still references decommissioned %s", route.Partition, victim)
			}
		}
	}
}

func TestPoolShrinkBounds(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3, Replicas: 3})
	if err := c.RemoveNode("dn-000"); err == nil {
		t.Fatal("shrinking below the replication factor was allowed")
	}
	if err := c.RemoveNode("no-such-node"); err == nil {
		t.Fatal("removing an unknown node was allowed")
	}
	// Ids are never recycled: grow after a (failed) shrink attempt
	// still mints a fresh id.
	n, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != "dn-003" {
		t.Fatalf("new node id %s, want dn-003", n.ID())
	}
	if err := c.RemoveNode(n.ID()); err != nil {
		t.Fatalf("removing the idle extra node: %v", err)
	}
	n2, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n2.ID() != "dn-004" {
		t.Fatalf("recycled id %s after decommission, want dn-004", n2.ID())
	}
}

// TestWritesRacingRemoveNode decommissions a node that leads partitions
// while writers keep writing to all of them: every write the cluster
// acknowledged — before, during or after the removal — must read back.
// The removed primary goes down as it is unregistered, so it cannot
// acknowledge a write the repair's promotion (drain, then the freshest
// follower) does not see.
func TestWritesRacingRemoveNode(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 5, Replicas: 3})
	tenant, err := c.CreateTenant(TenantSpec{Name: "race", QuotaRU: 1e9, Partitions: 4, DisableProxyCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := tenant.Client()
	view, err := c.Meta.RoutingView("race")
	if err != nil {
		t.Fatal(err)
	}
	victim := view.Partitions[0].Primary

	const writers, warmup = 4, 50
	acked := make([][]string, writers) // each writer's own acknowledged keys
	stop := make(chan struct{})
	var running, done sync.WaitGroup
	for w := 0; w < writers; w++ {
		running.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%06d", w, i)
				// A write that fails mid-decommission was not acknowledged.
				if err := cl.Set(bg, []byte(k), []byte("v-"+k)); err == nil {
					acked[w] = append(acked[w], k)
				}
				if i == warmup {
					running.Done()
				}
			}
		}(w)
	}
	running.Wait()
	if err := c.RemoveNode(victim); err != nil {
		t.Fatalf("RemoveNode(%s): %v", victim, err)
	}
	close(stop)
	done.Wait()
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("after-%02d", i)
		if err := cl.Set(bg, []byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("Set %s after the decommission: %v", k, err)
		}
		acked[0] = append(acked[0], k)
	}

	c.Meta.FlushReplication()
	total := 0
	for _, keys := range acked {
		total += len(keys)
		for _, k := range keys {
			if v, err := cl.Get(bg, []byte(k)); err != nil || string(v) != "v-"+k {
				t.Fatalf("acknowledged write %s reads back %q, %v", k, v, err)
			}
		}
	}
	if total < writers*warmup {
		t.Fatalf("only %d writes acknowledged", total)
	}
}
