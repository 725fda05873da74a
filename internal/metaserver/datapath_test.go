package metaserver_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
)

// TestDataPathDoesNotWaitOnControlPlane holds Meta.mu exclusively — a
// control action in progress: a tenant being created, a table being
// split — and drives every kind of request through a fleet whose route
// cache is warm. None of them may wait for the lock: routed calls use
// the node handles their cached view carries, and an acknowledged write
// replicates to the peers pushed to its primary.
func TestDataPathDoesNotWaitOnControlPlane(t *testing.T) {
	ctx := context.Background()
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("node-%d", i)})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 4, Proxies: 2}); err != nil {
		t.Fatal(err)
	}
	fleet, err := proxy.NewFleet(proxy.Config{
		Tenant: "t1", Meta: m, EnableCache: true, ProxyQuota: 1e9,
	}, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the keys the held phase reads, and warm every proxy's route
	// cache (Scan and Changes pick a random fleet member).
	for i := 0; i < 8; i++ {
		if err := fleet.Put(ctx, []byte(fmt.Sprintf("seed-%d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range fleet.Proxies() {
		if _, err := p.NumPartitions(); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushReplication()

	setKey := []byte("written-while-held")
	ops := []struct {
		name string
		run  func() error
	}{
		{"GET (AU-LRU miss)", func() error { _, err := fleet.Get(ctx, []byte("seed-0")); return err }},
		{"SET", func() error { return fleet.Put(ctx, setKey, []byte("v"), 0) }},
		{"MSET", func() error {
			return firstErr(fleet.BatchPut(ctx, []proxy.KV{{Key: []byte("m-1"), Value: []byte("v")}, {Key: []byte("m-2"), Value: []byte("v")}}))
		}},
		{"MGET", func() error {
			_, errs := fleet.BatchGet(ctx, [][]byte{[]byte("seed-1"), []byte("seed-2"), []byte("seed-3")})
			return firstErr(errs)
		}},
		{"SCAN page", func() error { _, err := fleet.Scan(ctx, "", proxy.ScanOptions{Count: 4}); return err }},
		{"GET from a follower", func() error { _, err := fleet.GetPref(ctx, []byte("seed-4"), proxy.ReadFollower); return err }},
		{"CHANGES page", func() error { _, err := fleet.Changes(ctx, 0, 0, 16); return err }},
	}
	m.WithLock(func() {
		for _, op := range ops {
			done := make(chan error, 1)
			go func() { done <- op.run() }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s while Meta.mu is held: %v", op.name, err)
				}
			case <-time.After(time.Second):
				t.Errorf("%s waited for Meta.mu", op.name)
			}
		}
	})

	m.FlushReplication()
	route, err := m.RouteFor("t1", setKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Followers) != 2 {
		t.Fatalf("route = %+v", route)
	}
	for _, f := range route.Followers {
		n, err := m.Node(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Get(ctx, route.Partition, setKey); err != nil {
			t.Errorf("the SET acknowledged while Meta.mu was held is not on follower %s: %v", f, err)
		}
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
