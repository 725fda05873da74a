package datanode

import (
	"time"

	"abase/internal/hotspot"
	"abase/internal/lavastore"
	"abase/internal/metrics"
	"abase/internal/partition"
	"abase/internal/wfq"
)

// TenantSnapshot is a point-in-time view of one tenant's service on
// this node.
type TenantSnapshot struct {
	Tenant    string
	Success   int64
	Throttled int64
	// Shed counts requests refused by deadline-aware admission: their
	// remaining deadline budget was below the node's estimated wait.
	Shed       int64
	Errors     int64
	CacheHits  int64
	CacheMiss  int64
	RUUsed     float64
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// HitRatio returns the tenant's node-cache hit ratio.
func (s TenantSnapshot) HitRatio() float64 {
	total := s.CacheHits + s.CacheMiss
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// TenantStats returns the snapshot for one tenant.
func (n *Node) TenantStats(tenant string) TenantSnapshot {
	n.mu.RLock()
	ts, ok := n.tenants[tenant]
	n.mu.RUnlock()
	if !ok {
		return TenantSnapshot{Tenant: tenant}
	}
	r := metrics.SumRequests(ts.reqs)
	return TenantSnapshot{
		Tenant:     tenant,
		Success:    r.Success.Value(),
		Throttled:  r.Refused.Value(),
		Shed:       r.Shed.Value(),
		Errors:     r.Errors.Value(),
		CacheHits:  r.Hits.Value(),
		CacheMiss:  r.Misses.Value(),
		RUUsed:     r.RU.Value(),
		LatencyP50: r.Latency.Quantile(0.5),
		LatencyP99: r.Latency.Quantile(0.99),
	}
}

// TenantRULedger sums the cumulative partition-limiter charge/refund
// ledger across every replica of tenant this node hosts or has ever
// hosted (removed replicas fold into a retired ledger, so migrations
// never lose accounting). The net charged − refunded is what tenant
// admission actually billed on this node.
func (n *Node) TenantRULedger(tenant string) (charged, refunded float64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l := n.retired[tenant]
	charged, refunded = l.charged, l.refunded
	for pid, rep := range n.replicas {
		if pid.Tenant != tenant {
			continue
		}
		c, r := rep.limiter.RUTotals()
		charged += c
		refunded += r
	}
	return charged, refunded
}

// HotKeys returns up to k heavy hitters of a hosted replica, hottest
// first, with windowed (decayed) access-count estimates. k <= 0 returns
// the whole summary. The summary is sampled (Config.HotSampleRate), so
// counts are estimates; recall on genuinely hot keys is what the
// detector guarantees.
func (n *Node) HotKeys(pid partition.ID, k int) ([]hotspot.HotKey, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return nil, err
	}
	top := rep.hot.TopK()
	if k > 0 && len(top) > k {
		top = top[:k]
	}
	return top, nil
}

// PartitionHeat returns a hosted replica's decayed access rate in
// ops/sec — the per-partition heat signal the MetaServer aggregates
// for split and rescheduling decisions. Unknown replicas report 0.
func (n *Node) PartitionHeat(pid partition.ID) float64 {
	rep, err := n.getReplica(pid)
	if err != nil {
		return 0
	}
	return rep.heat.Rate()
}

// PartitionHeats returns the heat of every hosted replica.
func (n *Node) PartitionHeats() map[partition.ID]float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[partition.ID]float64, len(n.replicas))
	for pid, rep := range n.replicas {
		out[pid] = rep.heat.Rate()
	}
	return out
}

// ResetHeat zeroes a hosted replica's heat meter and heavy-hitter
// sketch (experiment windows).
func (n *Node) ResetHeat(pid partition.ID) {
	if rep, err := n.getReplica(pid); err == nil {
		rep.heat.Reset()
		rep.hot.Reset()
	}
}

// NodeSnapshot summarizes node-level load for the control plane.
type NodeSnapshot struct {
	ID           string
	Replicas     int
	DiskUsed     int64
	DiskCapacity int64
	RUCapacity   float64
	CacheUsed    int64
	// Visits counts the requests that took the admission step since the
	// node started: a point op is one, and so is a node batch.
	Visits int64
}

// Snapshot returns node-level load and capacity.
func (n *Node) Snapshot() NodeSnapshot {
	var visits int64
	n.visits.Each(func(c *metrics.Counter) { visits += c.Value() })
	n.mu.RLock()
	defer n.mu.RUnlock()
	var disk int64
	for _, r := range n.replicas {
		st := r.db.Stats()
		disk += st.TableBytes + st.MemtableBytes
	}
	return NodeSnapshot{
		ID:           n.cfg.ID,
		Replicas:     len(n.replicas),
		DiskUsed:     disk,
		DiskCapacity: diskCapacity,
		RUCapacity:   ruCapacity,
		CacheUsed:    n.cache.Used(),
		Visits:       visits,
	}
}

// ReplicaDiskUsed returns the bytes used by one hosted replica.
func (n *Node) ReplicaDiskUsed(pid partition.ID) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	rep, ok := n.replicas[pid]
	if !ok {
		return 0
	}
	st := rep.db.Stats()
	return st.TableBytes + st.MemtableBytes
}

// ScanReplica iterates a hosted replica's live records in key order,
// each with its TTL deadline and commit sequence, so migration, split
// and repair can rewrite records without making them immortal. fn
// returning false stops the scan; the entry is only valid during the
// call.
func (n *Node) ScanReplica(pid partition.ID, fn func(lavastore.ScanEntry) bool) error {
	n.mu.RLock()
	rep, ok := n.replicas[pid]
	n.mu.RUnlock()
	if !ok {
		return ErrNoPartition
	}
	return rep.db.Scan(fn)
}

// CopyReplicaTo streams a hosted replica's live data into dst (which
// must already host the replica via AddReplica). The source keeps
// serving; this is the replica-repair data path (§3.3). Each record
// keeps its deadline as it is.
func (n *Node) CopyReplicaTo(pid partition.ID, dst *Node) error {
	n.mu.RLock()
	rep, ok := n.replicas[pid]
	n.mu.RUnlock()
	if !ok {
		return ErrNoPartition
	}
	var applyErr error
	err := rep.db.Scan(func(e lavastore.ScanEntry) bool {
		// Each record keeps its SOURCE sequence on the destination.
		// Fresh local sequences would run the destination's engine ahead
		// of the primary's, making every later replicated apply look
		// older than the copy and be skipped — silently losing
		// acknowledged writes on the rebuilt follower. The replication
		// position is still adopted wholesale from the source below,
		// never advanced per record: a partial copy must not look
		// caught up. The commit copies the entry's bytes before the scan
		// moves on.
		applyErr = dst.apply(pid, []WriteOp{{Key: e.Key, Value: e.Value, ExpireAt: e.ExpireAt}}, e.Seq, false, false)
		return applyErr == nil
	})
	if err == nil {
		// A callback-stopped scan returns nil from the store; the apply
		// failure must still surface, and the destination must NOT adopt
		// the source's replication position — a partial copy that looks
		// fully caught up is exactly the stale-promotion hazard the
		// position exists to prevent.
		err = applyErr
	}
	if err != nil {
		return err
	}
	// The copy holds everything the source holds, so the destination
	// inherits the source's replication position — counting only the
	// copied live keys would make a fully rebuilt follower look staler
	// than a long-dead one at promotion time.
	dst.AdoptReplicationPosition(pid, rep.replPos.Load())
	return nil
}

// Scheduler exposes the node's WFQ scheduler for observability.
func (n *Node) Scheduler() *wfq.Scheduler { return n.sched }
