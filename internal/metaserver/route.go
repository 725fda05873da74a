package metaserver

// This file is the control plane's one route commit. Who is in a
// partition's replica set, who leads it and at which epoch is decided
// in exactly one place — commit — and everything that needs the answer
// is TOLD it there: the member nodes by a route push (role, epoch and,
// on the primary, the follower peers its writes replicate to), the
// tenant's proxies by a cache invalidation. Nobody asks: no request —
// not a routed call, not an acknowledged write — takes m.mu to look a
// route or a node up. Failover, revival, repair, the movers and the
// split are edits handed to commit.

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"abase/internal/datanode"
	"abase/internal/partition"
)

// RoutingView is a consistent snapshot of one tenant's routing table
// for proxy-side caching, together with the handles of the nodes the
// pool held when it was taken — a proxy holding a view needs nothing
// else from the control plane to reach a replica. Version increases on
// every route commit, so a proxy can tell a fresh fetch from the cache
// it just invalidated.
type RoutingView struct {
	Version    uint64
	Partitions []partition.Route
	nodes      map[string]*datanode.Node
}

// Node resolves a node id named by one of the view's routes. A node
// that had left the pool when the view was taken fails with
// ErrUnknownNode; one that left since answers its callers with
// datanode.ErrNodeDown (FailNode takes it down as it unregisters it).
func (v RoutingView) Node(id string) (*datanode.Node, error) {
	if n, ok := v.nodes[id]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
}

// RoutingView returns the tenant's current routing table and version.
func (m *Meta) RoutingView(tenant string) (RoutingView, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return RoutingView{}, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	return RoutingView{
		Version:    t.version,
		Partitions: slices.Clone(t.Table.Partitions),
		nodes:      maps.Clone(m.nodes),
	}, nil
}

// routeInvalidator is implemented by registered proxies that cache the
// routing table; commit pushes invalidations on table changes.
type routeInvalidator interface{ InvalidateRoutes() }

// commit changes partitions [idx, idx+n) of tenant's table, all or
// none. edit is handed a private copy of each route in turn — the zero
// route of a partition one past the table's end when the partition is
// being created, which is how a tenant's first table and a split's
// doubled half arrive as one step — and validates its own preconditions
// against it ("from still leads", "to is not a member yet"): the route
// may have changed since the caller last looked, and an error from any
// edit leaves the table as it was. edit runs with m.mu held.
func (m *Meta) commit(tenant string, idx, n int, edit func(*partition.Route) error) error {
	m.mu.Lock()
	err := m.commitLocked(tenant, idx, n, edit)
	proxies := m.proxies[tenant]
	m.mu.Unlock()
	if err != nil {
		return err
	}
	// Last, and outside the lock: cached tables refetch before their next
	// routed call. A proxy that refetched between the install and this
	// push already holds the new version.
	for _, p := range proxies {
		if inv, ok := p.(routeInvalidator); ok {
			inv.InvalidateRoutes()
		}
	}
	return nil
}

// commitLocked is commit's critical section: look up, edit, install,
// bump the table version and push the new routes to their nodes. The
// version never lags the table, and because the pushes happen under
// m.mu, two changes to one partition reach its nodes in install order
// even when they share an epoch (a follower move does not bump it).
// No request path waits for m.mu, so holding it across the pushes
// stalls only other control actions.
// +locked:m.mu
func (m *Meta) commitLocked(tenant string, idx, n int, edit func(*partition.Route) error) error {
	t, ok := m.tenants[tenant]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	if idx < 0 || idx > len(t.Table.Partitions) {
		return fmt.Errorf("%w: %s/%d", ErrUnknownPartition, tenant, idx)
	}
	next := make([]partition.Route, n)
	for i := range next {
		next[i].Partition = partition.ID{Tenant: tenant, Index: idx + i}
		if idx+i < len(t.Table.Partitions) {
			next[i] = t.Table.Partitions[idx+i]
			// Snapshots share the table's follower slices: edits get their
			// own and may change it in place.
			next[i].Followers = slices.Clone(next[i].Followers)
		}
		if err := edit(&next[i]); err != nil {
			return err
		}
	}
	for i, route := range next {
		if idx+i == len(t.Table.Partitions) {
			t.Table.Partitions = append(t.Table.Partitions, partition.Route{})
		}
		old := t.Table.Partitions[idx+i]
		t.Table.Partitions[idx+i] = route
		m.pushLocked(old, route)
	}
	t.version++
	return nil
}

// pushLocked tells every node in the old ∪ new membership of a
// partition its new route, one SetRoute each: the primary learns its
// role, epoch and resolved follower peers together; everyone else —
// followers, a demoted primary, a member that just left — is (re)set
// to follower at the new epoch, which is the fence. A demoted primary
// is told first, so a write racing a handoff lands on exactly one side
// of the epoch. Pushes are best effort: a node that is down misses its
// push and gets the current route when it revives (reviveNode).
// +locked:m.mu
func (m *Meta) pushLocked(old, next partition.Route) {
	pid := next.Partition
	peers := make([]datanode.Peer, 0, len(next.Followers))
	for _, f := range next.Followers {
		if n, ok := m.nodes[f]; ok {
			peers = append(peers, m.fabric.Peer(pid, n))
		}
	}
	told := map[string]bool{"": true}
	members := append(append([]string{old.Primary, next.Primary}, next.Followers...), old.Followers...)
	for _, id := range members {
		n, ok := m.nodes[id]
		if told[id] || !ok {
			continue
		}
		told[id] = true
		var followers []datanode.Peer
		if id == next.Primary {
			followers = peers
		}
		_ = n.SetRoute(pid, id == next.Primary, next.Epoch, followers)
	}
}

// usableLocked returns node id's handle when it can serve as a copy
// source or be promoted: registered, answering probes and not marked
// down by the health tracker. Otherwise nil.
// +locked:m.mu
func (m *Meta) usableLocked(id string) *datanode.Node {
	n, ok := m.nodes[id]
	if h := m.health[id]; !ok || !n.Alive() || (h != nil && h.down) {
		return nil
	}
	return n
}

// promote is the one promotion gate, shared by failover, the repair of
// a lost primary and the graceful handoff: drain the replication fabric
// so every follower holds what `from` acknowledged, pick the live
// follower with the highest replication position (ties break on node id
// for determinism; `to`, when set, is the only candidate — the handoff
// names its successor), install it under epoch+1 and fence `from` (the
// route push). keep leaves `from` listed as a follower — a dead primary
// may revive and is then re-synced — rather than dropping it from the
// route. A partition with no live candidate keeps its route: it is
// unavailable until repair, which beats promoting nothing.
func (m *Meta) promote(tenant string, idx int, from, to string, keep bool) error {
	m.FlushReplication()
	best, err := m.freshest(tenant, idx, from, to)
	if err != nil {
		return err
	}
	return m.commit(tenant, idx, 1, func(r *partition.Route) error {
		if r.Primary != from || !slices.Contains(r.Followers, best) {
			return fmt.Errorf("metaserver: route for %s changed mid-promotion", r.Partition)
		}
		followers := without(r.Followers, best)
		if keep {
			followers = append([]string{from}, followers...)
		}
		r.Primary, r.Followers, r.Epoch = best, followers, r.Epoch+1
		return nil
	})
}

// freshest measures the usable followers of a partition led by `from`
// (only `only`, when set) and returns the one furthest along.
func (m *Meta) freshest(tenant string, idx int, from, only string) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[tenant]
	if !ok || idx < 0 || idx >= len(t.Table.Partitions) {
		return "", fmt.Errorf("%w: %s/%d", ErrUnknownPartition, tenant, idx)
	}
	route := t.Table.Partitions[idx]
	if route.Primary != from {
		return "", fmt.Errorf("metaserver: %s is not the primary of %s", from, route.Partition)
	}
	best, bestPos := "", uint64(0)
	for _, f := range route.Followers {
		n := m.usableLocked(f)
		if n == nil || (only != "" && f != only) {
			continue
		}
		if pos := n.ReplicationPosition(route.Partition); best == "" || pos > bestPos || (pos == bestPos && f < best) {
			best, bestPos = f, pos
		}
	}
	if best == "" {
		return "", fmt.Errorf("metaserver: no live follower of %s to promote", route.Partition)
	}
	return best, nil
}

// membership is one partition a node is routed for.
type membership struct {
	tenant string
	idx    int
	leads  bool
}

// memberships lists the partitions whose route names nodeID, tenants in
// name order.
func (m *Meta) memberships(nodeID string) []membership {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []membership
	for _, t := range m.tenants {
		for i, route := range t.Table.Partitions {
			if leads := route.Primary == nodeID; leads || slices.Contains(route.Followers, nodeID) {
				out = append(out, membership{t.Name, i, leads})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].tenant < out[j].tenant })
	return out
}

// without removes x from xs in place.
func without(xs []string, x string) []string {
	return slices.DeleteFunc(xs, func(v string) bool { return v == x })
}
