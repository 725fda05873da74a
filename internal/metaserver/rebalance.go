package metaserver

import (
	"fmt"
	"slices"

	"abase/internal/partition"
	"abase/internal/rescheduler"
)

// RebalanceOnce runs one heat-aware rescheduling pass over the live
// cluster (§5.3) and applies the planned migrations. It returns the
// migrations that were actually carried out.
//
// A follower move is: materialise an empty replica on the target,
// swap the route so new writes replicate to it, backfill history from
// the primary, then drop the old follower (join). The primary serves
// client traffic throughout — availability is untouched, and the new
// follower's staleness bound gates follower reads exactly as it does
// after a repair.
//
// A primary move (the only replicas that carry heat in the model, so
// heat-shedding depends on it) is a graceful handoff: the target
// first joins as an extra follower and catches up, then takes over
// through the same promotion gate as a failover (promote) — drain,
// epoch bump, the old primary fenced by the stale epoch — and the old
// replica is dropped.
func (m *Meta) RebalanceOnce(theta float64) ([]rescheduler.Migration, error) {
	pool := m.LoadModel()
	planned := pool.ReschedulePass(theta)
	var applied []rescheduler.Migration
	for _, mig := range planned {
		// The heat model can lag health: never move onto or off a node
		// the control plane considers down — the backfill would fail (or
		// worse, silently copy nothing) and the half-applied move would
		// strand a replica outside the routing table.
		if m.NodeDown(mig.From) || m.NodeDown(mig.To) {
			continue
		}
		idx, replica, ok := parseReplicaID(mig.ReplicaID, mig.Tenant)
		if !ok {
			continue
		}
		var err error
		if replica == 0 {
			err = m.movePrimary(mig.Tenant, idx, mig.From, mig.To)
		} else {
			err = m.moveFollower(mig.Tenant, idx, mig.From, mig.To)
		}
		if err != nil {
			// The pool model can be stale against live splits and
			// repairs; a move that no longer matches the route table
			// is skipped, not fatal.
			continue
		}
		applied = append(applied, mig)
	}
	return applied, nil
}

// join adds node `to` — the least-loaded spare when "" — to partition
// idx's replica set and backfills it, the half every replica move and
// repair shares. An empty replica is materialised on the node before
// the route mentions it (if that fails nothing has changed anywhere);
// enter then edits it into the route, from which moment new writes
// replicate to it through the fabric; the primary — which has
// everything — backfills history, and the copy adopts the primary's
// replication position, so the staleness bound converges. A failed
// backfill is undone by leave, and any failure drops the new replica
// again: a hosted replica the routing table cannot explain poisons
// later repairs. The node and the primary must be registered and up —
// the heat model can lag health, and a copy from or onto a down node
// moves nothing.
func (m *Meta) join(tenant string, idx int, to string, enter, leave func(r *partition.Route, to string) error) (partition.ID, error) {
	m.mu.RLock()
	t, ok := m.tenants[tenant]
	if !ok || idx < 0 || idx >= len(t.Table.Partitions) {
		m.mu.RUnlock()
		return partition.ID{}, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, tenant, idx)
	}
	route := t.Table.Partitions[idx]
	pid := route.Partition
	if to == "" {
		// Besides the routed hosts, pass over any node that physically
		// hosts the replica without being routed for it.
		exclude := map[string]bool{}
		for id, n := range m.nodes {
			exclude[id] = n.HostsReplica(pid)
		}
		if hosts := m.pickHostsLocked(1, exclude); len(hosts) == 1 {
			to = hosts[0]
		}
	}
	target, primary := m.usableLocked(to), m.usableLocked(route.Primary)
	perPartition := t.Quota.PartitionQuota()
	m.mu.RUnlock()
	if target == nil || primary == nil {
		return pid, fmt.Errorf("metaserver: node missing or down for %s to join %q", pid, to)
	}
	rid := partition.ReplicaID{Partition: pid, Replica: len(route.Followers) + 1}
	if err := target.AddReplica(rid, perPartition, false); err != nil {
		return pid, err
	}
	err := m.commit(tenant, idx, 1, func(r *partition.Route) error { return enter(r, to) })
	if err == nil {
		if err = primary.CopyReplicaTo(pid, target); err != nil {
			_ = m.commit(tenant, idx, 1, func(r *partition.Route) error { return leave(r, to) })
		}
	}
	if err != nil {
		_ = target.RemoveReplica(pid)
	}
	return pid, err
}

// unjoin is the leave edit of a plain join: the node comes back out of
// the follower list.
func unjoin(r *partition.Route, to string) error {
	r.Followers = without(r.Followers, to)
	return nil
}

// movePrimary relocates a partition's primary replica from node
// `from` to node `to` without losing acknowledged writes: `to` joins as
// an extra follower, then takes over through the promotion gate (drain,
// epoch bump, fence) and the old replica is dropped.
func (m *Meta) movePrimary(tenant string, idx int, from, to string) error {
	src, err := m.Node(from)
	if err != nil {
		return err
	}
	pid, err := m.join(tenant, idx, to, func(r *partition.Route, to string) error {
		if r.Primary != from {
			return fmt.Errorf("metaserver: %s is not the primary of %s", from, r.Partition)
		}
		r.Followers = append(r.Followers, to)
		return nil
	}, unjoin)
	if err != nil {
		return err
	}
	if err := m.promote(tenant, idx, from, to, false); err != nil {
		return err
	}
	return src.RemoveReplica(pid)
}

// moveFollower relocates one follower replica from node `from` to
// node `to`, keeping the primary and the route epoch untouched: `to`
// takes `from`'s place in the route and `from`'s replica is dropped
// once the backfill has landed.
func (m *Meta) moveFollower(tenant string, idx int, from, to string) error {
	src, err := m.Node(from)
	if err != nil || !src.Alive() {
		return fmt.Errorf("metaserver: node %s missing or down", from)
	}
	replace := func(old, with string) func(*partition.Route, string) error {
		return func(r *partition.Route, _ string) error {
			i := slices.Index(r.Followers, old)
			if i < 0 {
				return fmt.Errorf("metaserver: %s no longer follows %s", old, r.Partition)
			}
			r.Followers[i] = with
			return nil
		}
	}
	pid, err := m.join(tenant, idx, to, replace(from, to), replace(to, from))
	if err != nil {
		return err
	}
	return src.RemoveReplica(pid)
}

// parseReplicaID decodes the model's "tenant/partIdx/replicaIdx" id.
func parseReplicaID(id, tenant string) (partIdx, replica int, ok bool) {
	prefix := tenant + "/"
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(id[len(prefix):], "%d/%d", &partIdx, &replica); err != nil {
		return 0, 0, false
	}
	return partIdx, replica, true
}
