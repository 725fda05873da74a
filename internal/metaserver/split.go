package metaserver

import (
	"fmt"

	"abase/internal/datanode"
	"abase/internal/lavastore"
	"abase/internal/partition"
)

// SplitTenantPartitions doubles a tenant's partition count (the
// autoscaler triggers this when a scaled-up partition quota exceeds the
// per-partition upper bound, Algorithm 1 line 4-5). New partitions are
// placed on the least-loaded nodes and the tenant's data is rehashed
// into the doubled layout.
func (m *Meta) SplitTenantPartitions(tenant string) error {
	m.mu.Lock()
	t, ok := m.tenants[tenant]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	oldN := len(t.Table.Partitions)
	newN := oldN * 2
	t.Quota.SetPartitions(newN)
	perPartition := t.Quota.PartitionQuota()

	// Lower the existing partitions' quotas to the new per-partition
	// share.
	for _, route := range t.Table.Partitions {
		for _, host := range append([]string{route.Primary}, route.Followers...) {
			if n, ok := m.nodes[host]; ok {
				_ = n.SetPartitionQuota(route.Partition, perPartition)
			}
		}
	}
	m.mu.Unlock()

	// The new half (indexes oldN..newN-1) is placed and installed as one
	// route commit: the table doubles in a single step — keys hash modulo
	// its length — and cached proxy tables are invalidated, so they
	// refetch before their next page/batch and the rehashed keys stay
	// reachable. A split that raced this one finds the half already there.
	if err := m.commit(tenant, oldN, oldN, m.placeLocked); err != nil {
		return err
	}
	// The rehash runs on a snapshot: a concurrent failover may rewrite
	// live table entries.
	view, err := m.RoutingView(tenant)
	if err != nil {
		return err
	}
	routes, nodes := view.Partitions, view.nodes

	// Rehash: keys whose new partition differs move to it. With the
	// doubled count, hash%newN == hash%oldN for roughly half the keys;
	// the rest migrate, keeping their deadlines. A rehashed record (and its
	// source tombstone) commits on the partition PRIMARY and the
	// replication fabric carries it to followers — followers must hold the
	// moved keys too, or the first failover after a split would promote a
	// follower missing them (and source followers must drop their copies,
	// or that same failover would resurrect keys the split migrated away).
	// Routing through the fabric rather than applying on each replica
	// directly keeps every replica's change log identical: each migrated
	// record takes one sequence on the primary and lands at that same
	// sequence on followers, so change-stream resume tokens stay valid
	// across the split. The FlushReplication barrier below restores the
	// synchronous guarantee direct applies used to give.
	for _, src := range routes[:oldN] {
		srcNode, ok := nodes[src.Primary]
		if !ok {
			continue
		}
		var moved []datanode.WriteOp
		err := srcNode.ScanReplica(src.Partition, func(e lavastore.ScanEntry) bool {
			if partition.PartitionOf(e.Key, newN) != src.Partition.Index {
				moved = append(moved, datanode.WriteOp{
					Key:      append([]byte(nil), e.Key...),
					Value:    append([]byte(nil), e.Value...),
					ExpireAt: e.ExpireAt,
				})
			}
			return true
		})
		if err != nil {
			return err
		}
		for _, op := range moved {
			route := routes[partition.PartitionOf(op.Key, newN)]
			dst, ok := nodes[route.Primary]
			if !ok {
				continue
			}
			// A moved record keeps its deadline, so it neither turns
			// immortal nor outlives its un-moved neighbours.
			if err := dst.WriteThrough(route.Partition, op); err != nil {
				return err
			}
			if err := srcNode.WriteThrough(src.Partition, datanode.WriteOp{Key: op.Key, Delete: true}); err != nil {
				return err
			}
		}
	}
	// Drain the fabric before returning: callers (and tests) rely on
	// followers holding the moved keys once the split completes, which
	// the direct-apply scheme guaranteed synchronously.
	m.FlushReplication()
	return nil
}
