package proxy

// This file implements the proxy's epoch-stamped route cache and the
// single bounded retry loop shared by the point, scan, and
// change-stream paths (the batch executor applies the same
// one-retry rule per dispatch pass). The cache holds one RoutingView (the tenant's whole table,
// stamped with a version); it is refreshed on demand and invalidated
// two ways: pushed from the MetaServer when the table changes (split,
// failover, repair), and locally whenever an operation fails with a
// routing-shaped error — node down, demoted primary, stale epoch, or
// a partition the node no longer hosts. Each of those failures also
// reports the node as a suspect so the control plane probes it
// immediately instead of waiting for the next monitoring cycle.

import (
	"context"
	"errors"
	"sync"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/partition"
)

// routeTable is the proxy's cached routing view. gen counts
// invalidations: a fetch started before an invalidation must not be
// installed as valid after it, or the push from the MetaServer would
// be silently erased and a stale table served until the next
// routing-shaped *error* (which a wrong-partition NotFound never is).
type routeTable struct {
	mu    sync.RWMutex
	view  metaserver.RoutingView
	valid bool
	gen   uint64
}

// InvalidateRoutes drops the cached routing table; the next operation
// refetches it from the MetaServer. The MetaServer pushes this on
// every table change (the proxy registers at construction).
func (p *Proxy) InvalidateRoutes() {
	p.routes.mu.Lock()
	p.routes.valid = false
	p.routes.gen++
	p.routes.mu.Unlock()
}

// routingView returns the cached routing table, fetching a fresh
// snapshot when the cache is empty or invalidated.
func (p *Proxy) routingView() (metaserver.RoutingView, error) {
	p.routes.mu.RLock()
	if p.routes.valid {
		v := p.routes.view
		p.routes.mu.RUnlock()
		return v, nil
	}
	gen := p.routes.gen
	p.routes.mu.RUnlock()

	view, err := p.cfg.Meta.RoutingView(p.cfg.Tenant)
	if err != nil {
		return metaserver.RoutingView{}, err
	}
	p.routes.mu.Lock()
	switch {
	case p.routes.gen != gen:
		// An invalidation landed while the fetch was in flight: the
		// fetched view may predate the change it announced. Serve it
		// to THIS operation (bounded retry covers a miss) but leave
		// the cache invalid so the next operation refetches.
	case !p.routes.valid || view.Version >= p.routes.view.Version:
		p.routes.view = view
		p.routes.valid = true
	default:
		view = p.routes.view
	}
	p.routes.mu.Unlock()
	return view, nil
}

// hop resolves partition index part of view: its route and its
// primary's handle. The view carries the node handles, so a routed call
// reaches the control plane only to refetch an invalidated table.
func hop(view metaserver.RoutingView, part int) (partition.Route, *datanode.Node, error) {
	if part < 0 || part >= len(view.Partitions) {
		return partition.Route{}, nil, metaserver.ErrUnknownPartition
	}
	route := view.Partitions[part]
	node, err := view.Node(route.Primary)
	return route, node, err
}

// routeForKey resolves key's route from the cached table.
func (p *Proxy) routeForKey(key []byte) (partition.Route, *datanode.Node, error) {
	view, err := p.routingView()
	if err != nil {
		return partition.Route{}, nil, err
	}
	part := -1 // an empty table has no partition for any key
	if n := len(view.Partitions); n > 0 {
		part = partition.PartitionOf(key, n)
	}
	return hop(view, part)
}

// routeForIndex resolves partition index part's route from the cached
// table.
func (p *Proxy) routeForIndex(part int) (partition.Route, *datanode.Node, error) {
	view, err := p.routingView()
	if err != nil {
		return partition.Route{}, nil, err
	}
	return hop(view, part)
}

// retryableRouteErr reports whether err indicates the proxy's routing
// knowledge (not the request itself) is bad: the shared signal for
// "refresh the route cache and retry once".
func retryableRouteErr(err error) bool {
	return err != nil && (errors.Is(err, datanode.ErrNodeDown) ||
		errors.Is(err, datanode.ErrNotPrimary) ||
		errors.Is(err, datanode.ErrStaleEpoch) ||
		errors.Is(err, datanode.ErrNoPartition) ||
		errors.Is(err, metaserver.ErrUnknownNode))
}

// noteRouteFailure reacts to a routing-shaped failure: the cache is
// dropped, and a down-node error additionally reports the node as a
// suspect so the MetaServer probes (and, once confirmed, fails over)
// without waiting for its monitoring cadence.
func (p *Proxy) noteRouteFailure(nodeID string, err error) {
	p.InvalidateRoutes()
	if errors.Is(err, datanode.ErrNodeDown) {
		p.cfg.Meta.ReportNodeSuspect(nodeID)
	}
}

// routed is the one bounded retry loop behind every routed call:
// resolve a route from the cached table, run fn on its primary, and on
// a routing-shaped failure refresh the cache and retry exactly once.
// Anything else — including a second routing failure, which means the
// control plane has not finished failing over yet — surfaces to the
// caller unchanged. The retry honors ctx: a deadline that expires
// between the first attempt and the retry surfaces the context
// sentinel instead of dispatching doomed work.
func (p *Proxy) routed(ctx context.Context, resolve func() (partition.Route, *datanode.Node, error), fn func(node *datanode.Node, route partition.Route) error) error {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		route, node, err := resolve()
		if err != nil {
			// The primary had left the pool when the view was taken
			// (FailNode, repair still running): refresh and retry.
			if attempt == 0 && retryableRouteErr(err) {
				p.InvalidateRoutes()
				continue
			}
			return err
		}
		err = fn(node, route)
		if attempt == 0 && retryableRouteErr(err) {
			p.noteRouteFailure(route.Primary, err)
			continue
		}
		return err
	}
}

// withRoute runs fn on the primary of key's partition (see routed):
// the form every keyed operation uses.
func (p *Proxy) withRoute(ctx context.Context, key []byte, fn func(node *datanode.Node, route partition.Route) error) error {
	return p.routed(ctx, func() (partition.Route, *datanode.Node, error) { return p.routeForKey(key) }, fn)
}

// partRoute runs fn on the primary of partition index part (see
// routed): the form scans and change streams use.
func (p *Proxy) partRoute(ctx context.Context, part int, fn func(node *datanode.Node, route partition.Route) error) error {
	return p.routed(ctx, func() (partition.Route, *datanode.Node, error) { return p.routeForIndex(part) }, fn)
}
