package metaserver

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"abase/internal/datanode"
	"abase/internal/faultinject"
	"abase/internal/partition"
)

// countingProxy is a registered proxy that counts invalidation pushes
// (FailNode repairs partitions in parallel, so the count is atomic).
type countingProxy struct {
	fakeProxy
	invalidations atomic.Int64
}

func (p *countingProxy) InvalidateRoutes() { p.invalidations.Add(1) }

// commitFixture is a five-node pool — node-0..node-3 and "spare", whose
// disk the test can fail — with the one-partition tenant t1 placed on
// node-0 (primary), node-1 and node-2, some replicated data in it, and
// one registered proxy.
type commitFixture struct {
	m       *Meta
	proxy   *countingProxy
	spareFS *faultinject.FS
	route   partition.Route // partition 0 as created
}

func newCommitFixture(t *testing.T) *commitFixture {
	t.Helper()
	m, _ := newCluster(t, 4)
	fx := &commitFixture{m: m, proxy: &countingProxy{fakeProxy: fakeProxy{tenant: "t1"}}, spareFS: faultinject.NewFS(nil)}
	spare := datanode.New(datanode.Config{
		ID: "spare",
		FS: fx.spareFS,
	})
	t.Cleanup(func() { spare.Close() })
	m.RegisterNode(spare)
	ten, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 1, Proxies: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx.route = ten.Table.Partitions[0]
	if want := (partition.Route{Partition: fx.route.Partition, Primary: "node-0", Followers: []string{"node-1", "node-2"}, Epoch: 1}); !sameRoute(fx.route, want) {
		t.Fatalf("setup: placed %+v", fx.route)
	}
	m.RegisterProxy(fx.proxy)
	primary := nodeByID(t, m, fx.route.Primary)
	for i := 0; i < 20; i++ {
		if _, err := primary.Put(bg, fx.route.Partition, []byte(fmt.Sprintf("seed-%02d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	m.FlushReplication()
	return fx
}

func sameRoute(a, b partition.Route) bool {
	return a.Partition == b.Partition && a.Primary == b.Primary && a.Epoch == b.Epoch && slices.Equal(a.Followers, b.Followers)
}

// failPrimary kills the partition's primary and has the control plane
// notice.
func failPrimary(t *testing.T, fx *commitFixture) {
	t.Helper()
	nodeByID(t, fx.m, fx.route.Primary).SetDown(true)
	if err := fx.m.MarkNodeDown(fx.route.Primary); err != nil {
		t.Fatal(err)
	}
}

// TestRouteCommitConformance runs every kind of route change and checks
// what the one commit owes each of them afterwards: (a) the table
// version rose and the tenant's proxies were invalidated; (b) every
// reachable member's replica holds the role and epoch the table gives
// it; (c) the primary's pushed peer set is the route's follower list,
// and a fresh write reaches exactly the members; (d) no node hosts a
// replica the table does not list.
func TestRouteCommitConformance(t *testing.T) {
	errDisk := errors.New("injected: disk full")
	cases := []struct {
		name string
		prep func(t *testing.T, fx *commitFixture) // before the baseline is taken
		act  func(t *testing.T, fx *commitFixture)
	}{
		{name: "failover", act: func(t *testing.T, fx *commitFixture) {
			failPrimary(t, fx)
			if got := fx.currentRoute(t, 0); got.Primary == fx.route.Primary || got.Epoch != 2 || got.Followers[0] != fx.route.Primary {
				t.Fatalf("route after failover: %+v", got)
			}
		}},
		{name: "revival", prep: failPrimary, act: func(t *testing.T, fx *commitFixture) {
			nodeByID(t, fx.m, fx.route.Primary).SetDown(false)
			fx.m.MonitorNodeHealth()
			if fx.m.NodeDown(fx.route.Primary) {
				t.Fatal("node not revived")
			}
		}},
		{name: "FailNode of a primary", act: func(t *testing.T, fx *commitFixture) {
			if err := fx.m.FailNode(fx.route.Primary); err != nil {
				t.Fatal(err)
			}
			if got := fx.currentRoute(t, 0); got.Epoch != 2 || len(got.Followers) != 2 || slices.Contains(append(got.Followers, got.Primary), fx.route.Primary) {
				t.Fatalf("route after repair: %+v", got)
			}
		}},
		{name: "FailNode of a follower", act: func(t *testing.T, fx *commitFixture) {
			if err := fx.m.FailNode(fx.route.Followers[0]); err != nil {
				t.Fatal(err)
			}
			if got := fx.currentRoute(t, 0); got.Primary != fx.route.Primary || got.Epoch != 1 || !slices.Equal(got.Followers, []string{"node-2", "node-3"}) {
				t.Fatalf("route after repair: %+v", got)
			}
		}},
		{name: "movePrimary", act: func(t *testing.T, fx *commitFixture) {
			if err := fx.m.movePrimary("t1", 0, fx.route.Primary, "node-3"); err != nil {
				t.Fatal(err)
			}
			if got := fx.currentRoute(t, 0); got.Primary != "node-3" || got.Epoch != 2 || !slices.Equal(got.Followers, fx.route.Followers) {
				t.Fatalf("route after handoff: %+v", got)
			}
		}},
		{name: "moveFollower", act: func(t *testing.T, fx *commitFixture) {
			if err := fx.m.moveFollower("t1", 0, fx.route.Followers[0], "node-3"); err != nil {
				t.Fatal(err)
			}
			if got := fx.currentRoute(t, 0); got.Primary != fx.route.Primary || got.Epoch != 1 || !slices.Equal(got.Followers, []string{"node-3", "node-2"}) {
				t.Fatalf("route after move: %+v", got)
			}
		}},
		{name: "movePrimary, backfill fails", act: func(t *testing.T, fx *commitFixture) {
			fx.spareFS.SetWriteError(errDisk)
			if err := fx.m.movePrimary("t1", 0, fx.route.Primary, "spare"); !errors.Is(err, errDisk) {
				t.Fatalf("movePrimary onto a failing disk: %v", err)
			}
			if got := fx.currentRoute(t, 0); !sameRoute(got, fx.route) {
				t.Fatalf("rolled-back route %+v, want %+v", got, fx.route)
			}
		}},
		{name: "moveFollower, backfill fails", act: func(t *testing.T, fx *commitFixture) {
			fx.spareFS.SetWriteError(errDisk)
			if err := fx.m.moveFollower("t1", 0, fx.route.Followers[0], "spare"); !errors.Is(err, errDisk) {
				t.Fatalf("moveFollower onto a failing disk: %v", err)
			}
			if got := fx.currentRoute(t, 0); !sameRoute(got, fx.route) {
				t.Fatalf("rolled-back route %+v, want %+v", got, fx.route)
			}
		}},
		{name: "split", act: func(t *testing.T, fx *commitFixture) {
			if err := fx.m.SplitTenantPartitions("t1"); err != nil {
				t.Fatal(err)
			}
			fx.currentRoute(t, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newCommitFixture(t)
			if tc.prep != nil {
				tc.prep(t, fx)
			}
			before, err := fx.m.RoutingView("t1")
			if err != nil {
				t.Fatal(err)
			}
			pushes := fx.proxy.invalidations.Load()
			tc.act(t, fx)

			// (a)
			view, err := fx.m.RoutingView("t1")
			if err != nil {
				t.Fatal(err)
			}
			if view.Version <= before.Version {
				t.Errorf("table version %d -> %d: did not rise", before.Version, view.Version)
			}
			if fx.proxy.invalidations.Load() <= pushes {
				t.Error("the tenant's proxy was not invalidated")
			}
			routed := map[partition.ID][]string{}
			for _, route := range view.Partitions {
				pid := route.Partition
				members := append([]string{route.Primary}, route.Followers...)
				routed[pid] = members
				// (b)
				for _, id := range members {
					n := nodeByID(t, fx.m, id)
					if !n.Alive() {
						continue // told when it revives (the revival case)
					}
					primary, epoch, err := n.ReplicaRole(pid)
					if err != nil || primary != (id == route.Primary) || epoch != route.Epoch {
						t.Errorf("%s on %s: role (primary=%v, epoch=%d, %v), table says (%v, %d)",
							pid, id, primary, epoch, err, id == route.Primary, route.Epoch)
					}
				}
				// (c)
				primary := nodeByID(t, fx.m, route.Primary)
				if peers, err := primary.ReplicaPeers(pid); err != nil || !slices.Equal(peers, route.Followers) {
					t.Errorf("%s: primary %s replicates to %v (%v), route lists %v", pid, route.Primary, peers, err, route.Followers)
				}
				fresh := []byte("fresh-" + pid.String())
				if _, err := primary.PutAt(bg, pid, route.Epoch, fresh, []byte("v"), 0); err != nil {
					t.Fatalf("write at %s's primary %s: %v", pid, route.Primary, err)
				}
				fx.m.FlushReplication()
				for _, id := range fx.m.Nodes() {
					n := nodeByID(t, fx.m, id)
					if !n.Alive() {
						continue
					}
					_, err := n.Get(bg, pid, fresh)
					if has, want := err == nil, slices.Contains(members, id); has != want {
						t.Errorf("%s: fresh write on %s = %v (%v), member = %v", pid, id, has, err, want)
					}
				}
			}
			// (d)
			for _, id := range fx.m.Nodes() {
				for _, pid := range nodeByID(t, fx.m, id).Replicas() {
					if !slices.Contains(routed[pid], id) {
						t.Errorf("%s hosts %s, which the table does not list there (%v)", id, pid, routed[pid])
					}
				}
			}
		})
	}
}

// currentRoute returns partition idx's route as the table has it now.
func (fx *commitFixture) currentRoute(t *testing.T, idx int) partition.Route {
	t.Helper()
	view, err := fx.m.RoutingView("t1")
	if err != nil || idx >= len(view.Partitions) {
		t.Fatalf("partition %d: %v (table has %d)", idx, err, len(view.Partitions))
	}
	return view.Partitions[idx]
}

// TestRepairPromotesThroughTheCatchUpGate is TestFailoverCatchUpGating
// for the other way a primary is lost: FailNode of a node that still
// leads. The first follower in route order lags; repair must promote
// the caught-up one, and every write acknowledged before FailNode must
// read back from the new primary.
func TestRepairPromotesThroughTheCatchUpGate(t *testing.T) {
	m, _ := newCluster(t, 4)
	ten, err := m.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 1, Proxies: 1})
	if err != nil {
		t.Fatal(err)
	}
	route := ten.Table.Partitions[0]
	pid := route.Partition
	primary := nodeByID(t, m, route.Primary)
	lagging := nodeByID(t, m, route.Followers[0])
	caughtUp := nodeByID(t, m, route.Followers[1])

	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	put := func(i int) {
		t.Helper()
		if _, err := primary.Put(bg, pid, key(i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		put(i)
	}
	m.FlushReplication()
	// The first follower goes dark and misses a stretch of writes; it is
	// back (unnoticed by the health tracker, so not re-synced) when the
	// primary is lost.
	lagging.SetDown(true)
	for i := 5; i < 40; i++ {
		put(i)
	}
	m.FlushReplication()
	lagging.SetDown(false)
	if err := m.FailNode(route.Primary); err != nil {
		t.Fatal(err)
	}
	view, err := m.RoutingView("t1")
	if err != nil {
		t.Fatal(err)
	}
	got := view.Partitions[0]
	if got.Primary != caughtUp.ID() {
		t.Fatalf("repair promoted %s, want the caught-up follower %s (lagging: %s)", got.Primary, caughtUp.ID(), lagging.ID())
	}
	if got.Epoch != route.Epoch+1 {
		t.Fatalf("epoch %d after a promotion from %d", got.Epoch, route.Epoch)
	}
	for i := 0; i < 40; i++ {
		if _, err := caughtUp.Get(bg, pid, key(i)); err != nil {
			t.Fatalf("acknowledged key %s lost across the repair's promotion: %v", key(i), err)
		}
	}
}
