package proxy

// This file is the proxy's request pipeline for keyed operations. Every
// point operation is run by point and every batched one by batch
// (batch.go); both finish a failure through refundFailure. What the
// paper's proxy plane promises — a proxy quota that shields DataNodes
// from a tenant's burst and feeds the MetaServer's traffic control
// (§4.2), an AU-LRU in front of the hot keys (§4.4) — is therefore
// spelled once per executor, and an operation supplies only what
// actually differs: its admission cost, its DataNode call, and its
// AU-LRU policy.

import (
	"context"
	"errors"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/partition"
)

// cacheUse is an operation's AU-LRU policy.
type cacheUse uint8

const (
	// cacheBypass leaves the AU-LRU alone: the operation neither reads a
	// plain value nor changes what a cached one should answer (TTL,
	// Persist, HGet, HLen, HGetAll).
	cacheBypass cacheUse = iota
	// cacheRead heats the sketch and serves an AU-LRU hit before
	// admission, free of quota (§4.2); on a miss the node call fills the
	// cache (Get, BatchGet, BatchExists).
	cacheRead
	// cacheWrite heats the sketch — writes count toward hotness too —
	// and updates a cached entry or invalidates it according to what
	// the node stored (Put, PutWith, BatchPut).
	cacheWrite
	// cacheInvalidate drops the entry once a node has answered, found or
	// not: the AU-LRU's TTL is independent of the engine's, so an
	// engine-expired key may linger here and must not outlive an
	// explicit delete (Delete, Expire, HSetMulti, HDel, BatchDelete).
	cacheInvalidate
)

// access is one key's arrival as the AU-LRU policy saw it: when the
// request arrived, which a fill or write-through counts the entry's TTL
// from, the key's sketch estimate after this access, for the
// hotness-gated fill, and, for a read that missed, the write count the
// AU-LRU returned, which its fill passes back (see AULRU.FillAt).
type access struct {
	at     time.Time
	est    float64
	writes uint64
}

// cacheLookup is the policy's half before admission — before the
// limiter, so throttled traffic still heats the sketch. now is the
// request's arrival time: the sketch decays to it and the AU-LRU checks
// expiry against it. It returns the key's access, for the cache fills,
// and for a cacheRead the AU-LRU's answer: a hit is a served request
// that cost no quota. A miss or a write touches the sketch after the
// lookup; a hit is recorded by touchHit.
func (p *Proxy) cacheLookup(use cacheUse, key []byte, now time.Time) (acc access, v []byte, hit bool) {
	acc.at = now
	if p.cache == nil || (use != cacheRead && use != cacheWrite) {
		return acc, nil, false
	}
	if use == cacheRead {
		if v, hit, acc.writes = p.cache.GetAt(key, now); hit {
			c := p.reqs.Cell()
			c.Hits.Inc()
			c.Success.Inc()
			p.touchHit(key, now)
			return acc, v, true
		}
		p.reqs.Cell().Misses.Inc()
	}
	acc.est = p.touchHot(key, now)
	return acc, nil, false
}

// cacheSettle is the policy's half after the node call, given the
// key's own outcome: cacheInvalidate drops the entry once a node has
// answered, found or not. (cacheRead and cacheWrite fill, write through
// or invalidate inside the node call, where the stored value is known.)
func (p *Proxy) cacheSettle(use cacheUse, key []byte, err error) {
	if use == cacheInvalidate && p.cache != nil && (err == nil || errors.Is(err, datanode.ErrNotFound)) {
		p.cache.Delete(key)
	}
}

// keyed is what a point operation hands the executor.
type keyed struct {
	key []byte
	// cost is the admission charge: the pre-execution RU estimate. A
	// cacheRead leaves it unset: point takes the read estimate only
	// after a cache miss, since a hit is never charged.
	cost float64
	use  cacheUse
	// hit is where an AU-LRU hit lands (cacheRead only).
	hit *[]byte
}

// point runs one keyed operation: refuse a context that is already
// done, apply the AU-LRU policy, admit the cost through the proxy
// quota, call the key's primary with the one bounded retry withRoute
// gives every keyed path, and account for the outcome. call reports
// the RU the node billed, which feeds the MetaServer's traffic-control
// window; acc is the key's access, for the cache fills.
func (p *Proxy) point(ctx context.Context, op keyed, call func(node *datanode.Node, route partition.Route, acc access) (float64, error)) error {
	// A context that is already done never touches the sketch, the
	// cache, the quota, or the data plane: doomed requests are shed at
	// the door.
	if err := ctx.Err(); err != nil {
		return err
	}
	start := p.cfg.Clock.Now()
	acc, v, hit := p.cacheLookup(op.use, op.key, start)
	if hit {
		*op.hit = v
		p.reqs.Cell().Latency.Observe(p.cfg.Clock.Since(start))
		return nil
	}
	if op.use == cacheRead {
		op.cost = p.est.EstimateReadRU()
	}
	if !p.limiter.Allow(op.cost, start) {
		p.reqs.Cell().Refused.Inc()
		return ErrThrottled
	}
	var billed float64
	err := p.withRoute(ctx, op.key, func(node *datanode.Node, route partition.Route) error {
		var err error
		billed, err = call(node, route, acc)
		return err
	})
	p.cacheSettle(op.use, op.key, err)
	if err != nil {
		return p.refundFailure(op.cost, err)
	}
	c := p.reqs.Cell()
	c.RU.Add(billed)
	c.Success.Inc()
	c.Latency.Observe(p.cfg.Clock.Since(start))
	return nil
}

// write runs one keyed mutation: admitted at the same pre-execution
// estimate the node will use (with the proxy's own estimator), fenced at
// the route's epoch, applied atomically by the key's primary. What feeds
// traffic control is the RU the node billed; a cacheWrite writes through
// (or, for an expiring result, invalidates) once the node stored the
// value — an unmet condition left the record, and so the cache, as it
// was.
func (p *Proxy) write(ctx context.Context, use cacheUse, m datanode.Mutation) (res datanode.PutResult, err error) {
	op := keyed{key: m.Key, cost: m.AdmitRU(p.est, 3), use: use}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, acc access) (float64, error) {
		var err error
		if res, err = node.Write(ctx, route.Partition, route.Epoch, m); err != nil {
			return 0, err
		}
		if use == cacheWrite && res.Written {
			p.cacheWriteThrough(m.Key, m.Value, res.Expiring, acc)
		}
		return res.RU, nil
	})
	return res, err
}

// mapNodeErr translates data-plane sentinels into the proxy's.
func mapNodeErr(err error) error {
	switch {
	case errors.Is(err, datanode.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, datanode.ErrThrottled):
		return ErrThrottled
	default:
		return err
	}
}

// noWorkErr reports whether err proves the charged request never
// executed on a DataNode: routing-shaped failures (dead node, stale
// epoch, wrong primary, unknown partition), a node turning requests
// away as it closes, deadline sheds (the node refused before the
// request consumed a queue slot), and context aborts. Engine errors,
// node-side throttles, and not-found answers all represent work
// performed, so their charge stands.
func noWorkErr(err error) bool {
	return retryableRouteErr(err) ||
		errors.Is(err, metaserver.ErrUnknownPartition) ||
		errors.Is(err, datanode.ErrClosed) ||
		errors.Is(err, datanode.ErrDeadlineShed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// noteFailure classifies a data-plane failure into the proxy's
// counters: a deadline shed means the node refused doomed work (its
// own counter), and a context abort means the caller withdrew — only
// everything else is a service error.
func (p *Proxy) noteFailure(err error) {
	switch {
	case errors.Is(err, datanode.ErrDeadlineShed):
		p.reqs.Cell().Shed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The caller's budget ran out; nothing here failed.
	default:
		p.reqs.Cell().Errors.Inc()
	}
}

// refundFailure settles a failed request, point or batched, and is the
// only place the proxy returns RU: a failure that proves no DataNode
// work happened gives cost back to the tenant's bucket — the tenant
// must not pay for requests the system never executed — while every
// other failure keeps its charge (a not-found answer was a read the
// node performed; a node-side throttle is the throttling signal). The
// error is counted once and returned as the proxy's own sentinel.
func (p *Proxy) refundFailure(cost float64, err error) error {
	if noWorkErr(err) {
		p.limiter.Refund(cost)
	}
	p.noteFailure(err)
	return mapNodeErr(err)
}
