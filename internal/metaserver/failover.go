package metaserver

// This file is the control plane's failure-handling path: node health
// tracking (probe-based heartbeats), primary failover with
// monotonically increasing route epochs, and catch-up gating so a
// stale follower is never promoted ahead of a fresher one. The
// sequence on a dead primary is:
//
//  1. detect  — MonitorNodeHealth (or a proxy's ReportNodeSuspect)
//     sees DownAfterProbes consecutive failed probes;
//  2. drain   — the replication fabric applies every write the dead
//     primary acknowledged and handed to it, so no acknowledged write
//     is stranded in a queue;
//  3. promote — for each partition the node led, the live follower
//     with the highest replication position becomes primary under
//     route epoch+1;
//  4. fence   — the route push demotes the old primary (best-effort
//     now, and again on revival), so a write it still receives fails
//     with a typed stale-epoch/not-primary error the proxy understands;
//  5. redirect — registered proxies' route caches are invalidated and
//     their bounded retry re-resolves against the new table.
//
// Steps 2–5 are promote and commit (route.go), once per partition.

import (
	"fmt"
	"sort"

	"abase/internal/partition"
)

// nodeHealth is the control plane's view of one DataNode's liveness.
type nodeHealth struct {
	failedProbes int
	down         bool
}

// --- health tracking ---

// NodeDown reports whether the control plane currently considers the
// node down.
func (m *Meta) NodeDown(id string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.health[id]
	return ok && h.down
}

// probeOnce probes one node and updates its health record, reporting
// whether the node crossed the down threshold on this probe (the
// caller then runs failover) or recovered from a down state (the
// caller then runs revival). Must be called without m.mu held.
func (m *Meta) probeOnce(id string) (wentDown, cameBack bool) {
	m.mu.Lock()
	n, ok := m.nodes[id]
	if !ok {
		m.mu.Unlock()
		return false, false
	}
	h := m.health[id]
	if h == nil {
		h = &nodeHealth{}
		m.health[id] = h
	}
	m.mu.Unlock()

	alive := n.Alive() // outside the lock: a real probe is a network call

	m.mu.Lock()
	defer m.mu.Unlock()
	if alive {
		h.failedProbes = 0
		if h.down {
			h.down = false
			return false, true
		}
		return false, false
	}
	h.failedProbes++
	if !h.down && h.failedProbes >= m.downAfterProbes {
		h.down = true
		return true, false
	}
	return false, false
}

// ReportNodeSuspect is the proxy's failure hint: a request to the node
// just failed with a down-node error. The MetaServer probes the node
// immediately — a confirmed-dead node accumulates failed probes as
// fast as traffic reports it, so failover does not wait for the next
// monitoring cycle. Reports against healthy nodes are absorbed by the
// probe (which resets the counter).
func (m *Meta) ReportNodeSuspect(id string) {
	wentDown, cameBack := m.probeOnce(id)
	if wentDown {
		m.failoverNode(id)
	}
	if cameBack {
		m.reviveNode(id)
	}
}

// MonitorNodeHealth runs one health cycle: every registered node is
// probed, nodes that reach DownAfterProbes consecutive failures are
// failed over (followers promoted under a bumped epoch), and
// previously-down nodes that answer again are revived (their stale
// primaries fenced to followers). It returns the IDs of nodes failed
// over this cycle. Cluster.MonitorTrafficOnce drives it alongside the
// quota and heat monitors.
func (m *Meta) MonitorNodeHealth() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)

	var failed []string
	for _, id := range ids {
		wentDown, cameBack := m.probeOnce(id)
		if wentDown {
			m.failoverNode(id)
			failed = append(failed, id)
		}
		if cameBack {
			m.reviveNode(id)
		}
	}
	return failed
}

// MarkNodeDown declares a node down immediately (operator action or a
// partition detector outside the probe loop) and fails over every
// partition it led. The node process itself is not touched: under a
// network partition it may still believe it is primary, which is
// exactly what epoch fencing exists for.
func (m *Meta) MarkNodeDown(id string) error {
	m.mu.Lock()
	if _, ok := m.nodes[id]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	h := m.health[id]
	if h == nil {
		h = &nodeHealth{}
		m.health[id] = h
	}
	already := h.down
	h.down = true
	h.failedProbes = m.downAfterProbes
	m.mu.Unlock()
	if !already {
		m.failoverNode(id)
	}
	return nil
}

// reviveNode clears a node's down state, re-pushes the current route of
// every partition it is routed for — it missed the pushes made while it
// was down, so this is what fences a replica it still believes it leads
// and what refreshes the peers of one it really does — and re-syncs
// every follower replica it hosts from its current primary. The re-sync
// is load-bearing for durability: replication applies the node missed
// while down are holes in its history, yet a later apply advances its
// replication position past them — so without a rebuild, a future
// catch-up-gated promotion could crown a replica that silently lost
// acknowledged writes. Revival does not change routing — a
// repair/rebalance pass decides whether the node earns primaries back.
func (m *Meta) reviveNode(id string) {
	m.mu.Lock()
	n, ok := m.nodes[id]
	if h := m.health[id]; ok && h != nil {
		h.down, h.failedProbes = false, 0
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	parts := m.memberships(id)
	for _, p := range parts {
		_ = m.commit(p.tenant, p.idx, 1, func(*partition.Route) error { return nil })
	}
	// Drain the replication queue before copying so the backfill cannot
	// be interleaved with (and overwrite) applies already in flight;
	// the copy then holds everything the primary has acknowledged and
	// adopts its replication position.
	m.FlushReplication()
	for _, p := range parts {
		m.mu.RLock()
		route := m.tenants[p.tenant].Table.Partitions[p.idx]
		primary := m.usableLocked(route.Primary)
		m.mu.RUnlock()
		if primary != nil && primary != n {
			_ = primary.CopyReplicaTo(route.Partition, n)
		}
	}
}

// failoverNode promotes a replacement primary for every partition the
// down node led (see promote). Partitions with no live follower stay
// routed at the dead node — unavailable until repair. Must be called
// without m.mu held.
func (m *Meta) failoverNode(nodeID string) {
	for _, p := range m.memberships(nodeID) {
		if p.leads {
			_ = m.promote(p.tenant, p.idx, nodeID, "", true)
		}
	}
}
