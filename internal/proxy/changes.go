package proxy

// This file is the proxy plane of the change-stream subsystem: reading
// a partition's change log through the cached routing table (with the
// shared one-refresh-per-call retry, so a reader rides through
// failover), registering commit-wake signals, and fanning retention
// holds out to every route member. Change reads are system traffic —
// no tenant quota admission — because a consumer catching up after a
// stall must not be throttled into falling further behind; the
// DataNode bounds each batch instead.

import (
	"context"
	"time"

	"abase/internal/datanode"
	"abase/internal/partition"
)

// NumPartitions returns the tenant's current partition count.
func (p *Proxy) NumPartitions() (int, error) {
	view, err := p.routingView()
	if err != nil {
		return 0, err
	}
	return len(view.Partitions), nil
}

// Changes reads one partition's change log from sequence from (see
// datanode.Changes). The page is served by the partition's current
// primary; a failover mid-stream surfaces as one transparent route
// refresh, after which the new primary serves the same offsets — the
// change log is sequence-aligned across replicas.
func (p *Proxy) Changes(ctx context.Context, part int, from uint64, max int) (datanode.ChangeBatch, error) {
	var batch datanode.ChangeBatch
	err := p.partRoute(ctx, part, func(node *datanode.Node, route partition.Route) error {
		b, err := node.Changes(ctx, route.Partition, from, max)
		if err != nil {
			return err
		}
		batch = b
		return nil
	})
	if err != nil {
		return datanode.ChangeBatch{}, mapNodeErr(err)
	}
	return batch, nil
}

// ChangesBounds returns the partition's replayable window (lowest
// servable sequence, acknowledged end of log) from its current
// primary. Subscriptions use it to fail a stale resume token fast.
func (p *Proxy) ChangesBounds(ctx context.Context, part int) (lo, end uint64, err error) {
	err = p.partRoute(ctx, part, func(node *datanode.Node, route partition.Route) error {
		l, e, err := node.ChangesBounds(route.Partition)
		if err != nil {
			return err
		}
		lo, end = l, e
		return nil
	})
	if err != nil {
		return 0, 0, mapNodeErr(err)
	}
	return lo, end, nil
}

// ChangeSignal registers a commit watcher with the partition's current
// primary (see datanode.ChangesSignal). The registration is pinned to
// the node that was primary at call time: after a failover the channel
// goes quiet rather than erroring, so tail-followers pair it with a
// periodic poll and re-register when the route moves.
func (p *Proxy) ChangeSignal(ctx context.Context, part int) (<-chan struct{}, func(), error) {
	var ch <-chan struct{}
	var cancel func()
	err := p.partRoute(ctx, part, func(node *datanode.Node, route partition.Route) error {
		c, cf, err := node.ChangesSignal(route.Partition)
		if err != nil {
			return err
		}
		ch, cancel = c, cf
		return nil
	})
	if err != nil {
		return nil, nil, mapNodeErr(err)
	}
	return ch, cancel, nil
}

// HoldChanges places holder's retention hold on EVERY member of the
// partition's route — primary and followers alike. Each replica prunes
// its own WAL, and any follower may be promoted next; holding only the
// primary would let the next primary's history be collected out from
// under the resume tokens the hold protects. Follower holds are
// best-effort (a down follower is re-synced wholesale on revival
// anyway); the primary hold must land.
func (p *Proxy) HoldChanges(ctx context.Context, part int, holder string, floor uint64, ttl time.Duration) error {
	return p.onMembers(ctx, part, func(n *datanode.Node, pid partition.ID) error {
		return n.HoldChanges(pid, holder, floor, ttl)
	})
}

// ReleaseChanges drops holder's hold from every reachable route
// member. Unreachable members age the hold out via its TTL.
func (p *Proxy) ReleaseChanges(ctx context.Context, part int, holder string) error {
	return p.onMembers(ctx, part, func(n *datanode.Node, pid partition.ID) error {
		return n.ReleaseChanges(pid, holder)
	})
}

// onMembers runs do on every member of partition part's route: the
// primary, whose outcome is the call's (with the shared routed retry),
// then — best effort — each follower the cached view resolves.
func (p *Proxy) onMembers(ctx context.Context, part int, do func(n *datanode.Node, pid partition.ID) error) error {
	err := p.partRoute(ctx, part, func(node *datanode.Node, route partition.Route) error {
		if err := do(node, route.Partition); err != nil {
			return err
		}
		view, _ := p.routingView() // the zero view resolves no follower
		for _, f := range route.Followers {
			if fn, err := view.Node(f); err == nil {
				_ = do(fn, route.Partition)
			}
		}
		return nil
	})
	return mapNodeErr(err)
}

// Changes routes one change-log page through a random fleet member
// (scan idiom: change reads carry no key affinity).
func (f *Fleet) Changes(ctx context.Context, part int, from uint64, max int) (datanode.ChangeBatch, error) {
	return f.pick().Changes(ctx, part, from, max)
}

// NumPartitions returns the tenant's current partition count.
func (f *Fleet) NumPartitions() (int, error) { return f.pick().NumPartitions() }

// ChangesBounds proxies datanode.ChangesBounds through the fleet.
func (f *Fleet) ChangesBounds(ctx context.Context, part int) (lo, end uint64, err error) {
	return f.pick().ChangesBounds(ctx, part)
}

// ChangeSignal proxies datanode.ChangesSignal through the fleet.
func (f *Fleet) ChangeSignal(ctx context.Context, part int) (<-chan struct{}, func(), error) {
	return f.pick().ChangeSignal(ctx, part)
}

// HoldChanges proxies Proxy.HoldChanges through the fleet.
func (f *Fleet) HoldChanges(ctx context.Context, part int, holder string, floor uint64, ttl time.Duration) error {
	return f.pick().HoldChanges(ctx, part, holder, floor, ttl)
}

// ReleaseChanges proxies Proxy.ReleaseChanges through the fleet.
func (f *Fleet) ReleaseChanges(ctx context.Context, part int, holder string) error {
	return f.pick().ReleaseChanges(ctx, part, holder)
}

// pick returns a random fleet member (see Fleet.Scan).
func (f *Fleet) pick() *Proxy {
	f.mu.Lock()
	p := f.proxies[f.rng.Intn(len(f.proxies))]
	f.mu.Unlock()
	return p
}
