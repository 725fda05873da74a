package metaserver

import (
	"fmt"
	"sync"

	"abase/internal/partition"
)

// FailNode removes a DataNode from the pool and reconstructs every
// replica it hosted, in parallel, across the surviving nodes (§3.3).
// Each lost replica is rebuilt by copying from the partition's primary,
// exploiting multi-node disk bandwidth. The node goes down in the same
// step that unregisters it: a proxy still holding its handle in a
// cached view gets a routing-shaped error, never an acknowledgement —
// a removed primary that stayed writable would acknowledge writes the
// repair's promotion never sees.
func (m *Meta) FailNode(nodeID string) error {
	m.mu.Lock()
	failed, ok := m.nodes[nodeID]
	if ok {
		delete(m.nodes, nodeID)
		failed.SetDown(true) // its data is considered lost
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}

	parts := m.memberships(nodeID)
	var wg sync.WaitGroup
	errCh := make(chan error, len(parts)) // one slot per repair: no send blocks
	for _, p := range parts {
		wg.Add(1)
		go func(p membership) {
			defer wg.Done()
			if err := m.repairPartition(p, nodeID); err != nil {
				errCh <- err
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	return <-errCh // the first failure, nil when there was none
}

// repairPartition rebuilds one partition's lost replica on a spare
// node. A lost primary is first replaced through the promotion gate —
// a repair promotes exactly as a failover does; the spare then joins as
// a follower in the lost replica's place.
func (m *Meta) repairPartition(p membership, failedID string) error {
	if p.leads {
		if err := m.promote(p.tenant, p.idx, failedID, "", false); err != nil {
			return err
		}
	}
	_, err := m.join(p.tenant, p.idx, "", func(r *partition.Route, to string) error {
		r.Followers = append(without(r.Followers, failedID), to)
		return nil
	}, unjoin)
	return err
}
