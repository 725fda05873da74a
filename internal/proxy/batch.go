package proxy

// This file implements batched multi-key operations through the proxy
// plane. One executor (batch) runs them all: it makes one pass over the
// routing table, serves AU-LRU hits before any fan-out, admits the rest
// through the quota limiter once at the summed RU cost, and fans out to
// each owning DataNode in parallel with bounded concurrency — one node
// round trip (a single request-queue admission) carrying that node's
// per-partition sub-batches. Results merge back into input order with
// per-key error slots, so one throttled or missing key never aborts the
// rest of the batch, and every failed key is settled on its own: what
// provably did no DataNode work gets its share of the charge back.

import (
	"context"
	"errors"
	"sync"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/partition"
	"abase/internal/ru"
)

// KV is one key/value pair in a batched put.
type KV struct {
	Key   []byte
	Value []byte
	TTL   time.Duration
}

// batchFanout bounds how many DataNodes one proxy dispatches to
// concurrently during a batched operation.
const batchFanout = 4

// nodeBatch is the slice of a batch owned by one DataNode, split into
// its per-partition sub-batches.
type nodeBatch struct {
	node   *datanode.Node
	gets   []datanode.GetBatch // per-partition key groups
	idxs   [][]int             // original batch positions, parallel to gets
	epochs []uint64            // route epoch per sub-batch, parallel to gets
}

// groupByNode splits the selected batch positions by owning DataNode
// and partition using a single pass over the cached routing table.
// Routing failures are recorded in errs and excluded from the result.
func (p *Proxy) groupByNode(keys [][]byte, idxs []int, errs []error) []*nodeBatch {
	view, err := p.routingView()
	if err != nil || len(view.Partitions) == 0 {
		if err == nil {
			err = metaserver.ErrUnknownPartition
		}
		for _, i := range idxs {
			errs[i] = err
		}
		return nil
	}
	// A first pass sizes every partition's group, so the groups' keys
	// and positions are cut from one allocation each instead of growing
	// key by key; the second resolves a partition's node once, at its
	// first key.
	parts := make([]int, len(idxs))
	count := make([]int, len(view.Partitions))
	for j, i := range idxs {
		parts[j] = partition.PartitionOf(keys[i], len(view.Partitions))
		count[parts[j]]++
	}
	keyBuf, idxBuf := make([][]byte, len(idxs)), make([]int, len(idxs))
	type group struct {
		nb *nodeBatch
		g  int // index into nb.gets
	}
	groups := make([]group, len(view.Partitions))
	byNode := make(map[string]*nodeBatch)
	var order []*nodeBatch
	for j, i := range idxs {
		gr := &groups[parts[j]]
		if gr.nb == nil {
			route := &view.Partitions[parts[j]]
			nb, ok := byNode[route.Primary]
			if !ok {
				node, err := view.Node(route.Primary)
				if err != nil {
					errs[i] = err
					continue
				}
				nb = &nodeBatch{node: node}
				byNode[route.Primary] = nb
				order = append(order, nb)
			}
			n := count[parts[j]]
			gr.nb, gr.g = nb, len(nb.gets)
			nb.gets = append(nb.gets, datanode.GetBatch{PID: route.Partition, Keys: keyBuf[:0:n]})
			nb.idxs = append(nb.idxs, idxBuf[:0:n])
			nb.epochs = append(nb.epochs, route.Epoch)
			keyBuf, idxBuf = keyBuf[n:], idxBuf[n:]
		}
		gr.nb.gets[gr.g].Keys = append(gr.nb.gets[gr.g].Keys, keys[i])
		gr.nb.idxs[gr.g] = append(gr.nb.idxs[gr.g], i)
	}
	return order
}

// noteBatchNodeErr reports a down node seen by a batch dispatch (once
// per node batch) and invalidates the route cache so the retry pass
// resolves fresh routes.
func (p *Proxy) noteBatchNodeErr(nb *nodeBatch, err error, reported *bool) {
	if *reported || !retryableRouteErr(err) {
		return
	}
	*reported = true
	p.noteRouteFailure(nb.node.ID(), err)
}

// retryPass collects the batch positions whose error is
// routing-shaped, clearing their slots for one more dispatch. The
// batch executor loops at most twice, giving every keyed path the same
// single bounded retry as withRoute.
func retryPass(idxs []int, errs []error) []int {
	var retry []int
	for _, i := range idxs {
		if retryableRouteErr(errs[i]) {
			errs[i] = nil
			retry = append(retry, i)
		}
	}
	return retry
}

// fanout bounds the node-level dispatch concurrency. Tiny batches run
// serially: a goroutine handoff costs more than the round trips it
// would overlap.
func fanout(totalKeys int) int {
	if totalKeys <= 8 {
		return 1
	}
	return batchFanout
}

// runBounded invokes fn(i) for i in [0,n) with at most limit running
// concurrently.
func runBounded(n, limit int, fn func(i int)) {
	if limit < 1 {
		limit = 1
	}
	if n <= 1 || limit == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// batchOp is what a batched operation hands the executor. Positions
// index keys.
type batchOp struct {
	keys [][]byte
	use  cacheUse
	// cost is key i's share of the one summed admission charge: what
	// the key gets back if it provably did no DataNode work.
	cost func(i int) float64
	// hit answers key i from the AU-LRU (cacheRead only).
	hit func(i int, v []byte)
	// reads has the estimator learn from every key a node read, found
	// or not, by sub-batch (see ru.ReadBatch).
	reads bool
	// dispatch sends one node its per-partition sub-batches; the results
	// are parallel to nb.gets.
	dispatch func(nb *nodeBatch) []datanode.BatchResult
	// result takes key i's own answer from a served sub-batch, returning
	// nil when the key was served. acc is the key's access, for the
	// cache fills.
	result func(i int, bv datanode.BatchValue, acc access) error
}

// batch runs one batched operation and returns its per-key errors,
// parallel to op.keys: nil when the key was served, ErrNotFound,
// ErrThrottled when the quota rejected the batch (or the node the
// sub-batch holding the key), a context sentinel, or a transport error.
func (p *Proxy) batch(ctx context.Context, op batchOp) []error {
	errs := make([]error, len(op.keys))
	if len(op.keys) == 0 {
		return errs
	}
	// A pre-canceled batch never consumes cache slots, quota, or RU.
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	start := p.cfg.Clock.Now()
	defer func() { p.reqs.Cell().Latency.Observe(p.cfg.Clock.Since(start)) }()

	// AU-LRU pre-pass, before the limiter: hits cost no quota and
	// survive a throttle, and throttled traffic still heats the sketch.
	accs := make([]access, len(op.keys))
	admit := make([]int, 0, len(op.keys))
	var cost float64
	for i, k := range op.keys {
		acc, v, hit := p.cacheLookup(op.use, k, start)
		if hit {
			op.hit(i, v)
			continue
		}
		accs[i] = acc
		admit = append(admit, i)
		cost += op.cost(i)
	}
	if len(admit) == 0 {
		return errs
	}
	if !p.limiter.Allow(cost, start) {
		p.reqs.Cell().Refused.Inc()
		for _, i := range admit {
			errs[i] = ErrThrottled
		}
		return errs
	}

	// Bounded retry: a pass whose failures are routing-shaped (node
	// down, stale epoch or write fence from a demoted primary, moved
	// partition) re-resolves routes and re-dispatches exactly once,
	// like withRoute on the point path.
	pending := admit
	for attempt := 0; attempt < 2 && len(pending) > 0; attempt++ {
		batches := p.groupByNode(op.keys, pending, errs)
		runBounded(len(batches), fanout(len(pending)), func(bi int) {
			nb := batches[bi]
			reported := false
			for g, res := range op.dispatch(nb) {
				if res.Err != nil {
					p.noteBatchNodeErr(nb, res.Err, &reported)
					for _, i := range nb.idxs[g] {
						errs[i] = res.Err
					}
					continue
				}
				p.reqs.Cell().RU.Add(res.RU)
				var reads ru.ReadBatch
				for j, i := range nb.idxs[g] {
					bv := res.Values[j]
					p.cacheSettle(op.use, op.keys[i], bv.Err)
					if op.reads && (bv.Err == nil || errors.Is(bv.Err, datanode.ErrNotFound)) {
						reads.Add(p.est, len(bv.Value), bv.CacheHit) // an absent key still cost a lookup
					}
					errs[i] = op.result(i, bv, accs[i])
				}
				reads.Flush(p.est)
			}
		})
		if attempt == 0 {
			pending = retryPass(pending, errs)
		}
	}
	for _, i := range admit {
		if errs[i] != nil {
			errs[i] = p.refundFailure(op.cost(i), errs[i])
		} else {
			p.reqs.Cell().Success.Inc()
		}
	}
	return errs
}

// flatCost charges every key of a batch the same estimate.
func flatCost(c float64) func(int) float64 {
	return func(int) float64 { return c }
}

// BatchGet reads keys through this proxy. The returned slices are
// parallel to keys. AU-LRU hits are served first without consuming
// quota; the remaining misses are admitted once at the summed RU
// estimate and fanned out per node.
func (p *Proxy) BatchGet(ctx context.Context, keys [][]byte) (values [][]byte, errs []error) {
	values = make([][]byte, len(keys))
	errs = p.batch(ctx, batchOp{
		keys: keys,
		use:  cacheRead,
		cost: flatCost(p.est.EstimateReadRU()),
		hit:  func(i int, v []byte) { values[i] = v },
		dispatch: func(nb *nodeBatch) []datanode.BatchResult {
			return nb.node.MultiGet(ctx, nb.gets)
		},
		reads: true,
		result: func(i int, bv datanode.BatchValue, acc access) error {
			if bv.Err != nil {
				return bv.Err
			}
			values[i] = bv.Value
			// TTL-bearing values stay out of the AU-LRU (see GetPref);
			// TTL-free fills go through the hotness gate.
			if bv.ExpireAt == 0 {
				p.cacheFill(keys[i], bv.Value, acc)
			}
			return nil
		},
	})
	return values, errs
}

// BatchExists reports key existence without transferring values: AU-LRU
// hits answer immediately, and the rest are resolved by the DataNodes'
// value-free metadata check at a metadata-sized RU cost. exists and
// errs are parallel to keys.
func (p *Proxy) BatchExists(ctx context.Context, keys [][]byte) (exists []bool, errs []error) {
	exists = make([]bool, len(keys))
	errs = p.batch(ctx, batchOp{
		keys: keys,
		use:  cacheRead,
		cost: flatCost(p.est.EstimateHLenRU()),
		hit:  func(i int, _ []byte) { exists[i] = true },
		dispatch: func(nb *nodeBatch) []datanode.BatchResult {
			return nb.node.MultiContains(ctx, nb.gets)
		},
		result: func(i int, bv datanode.BatchValue, _ access) error {
			// Absent is a successful answer, not a failure.
			if errors.Is(bv.Err, datanode.ErrNotFound) {
				return nil
			}
			exists[i] = bv.Err == nil
			return bv.Err
		},
	})
	return exists, errs
}

// multiWrite is the node dispatch of the write batches: one MultiWrite
// carrying the node's sub-batches, fenced at their route epochs, with
// write building the op for a batch position.
func multiWrite(ctx context.Context, write func(i int) datanode.Mutation) func(nb *nodeBatch) []datanode.BatchResult {
	return func(nb *nodeBatch) []datanode.BatchResult {
		puts := make([]datanode.PutBatch, len(nb.gets))
		for g := range nb.gets {
			ops := make([]datanode.Mutation, len(nb.idxs[g]))
			for j, i := range nb.idxs[g] {
				ops[j] = write(i)
			}
			puts[g] = datanode.PutBatch{PID: nb.gets[g].PID, Ops: ops, Epoch: nb.epochs[g]}
		}
		return nb.node.MultiWrite(ctx, puts)
	}
}

// BatchPut writes kvs through this proxy, admitting the whole batch
// once at the summed write cost and fanning one round trip out per
// owning node. errs is parallel to kvs.
func (p *Proxy) BatchPut(ctx context.Context, kvs []KV) []error {
	keys := make([][]byte, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	return p.batch(ctx, batchOp{
		keys: keys,
		use:  cacheWrite,
		cost: func(i int) float64 { return ru.WriteRU(len(kvs[i].Value), 3) },
		dispatch: multiWrite(ctx, func(i int) datanode.Mutation {
			return datanode.Mutation{Key: kvs[i].Key, Value: kvs[i].Value, PutOptions: PutOptions{TTL: kvs[i].TTL}}
		}),
		result: func(i int, bv datanode.BatchValue, acc access) error {
			if bv.Err == nil {
				p.cacheWriteThrough(kvs[i].Key, kvs[i].Value, kvs[i].TTL > 0, acc)
			}
			return bv.Err
		},
	})
}

// BatchDelete removes keys through this proxy with one admission and a
// per-node fan-out. errs is parallel to keys.
func (p *Proxy) BatchDelete(ctx context.Context, keys [][]byte) []error {
	return p.batch(ctx, batchOp{
		keys: keys,
		use:  cacheInvalidate,
		cost: flatCost(ru.WriteRU(0, 3)),
		dispatch: multiWrite(ctx, func(i int) datanode.Mutation {
			return datanode.Mutation{Kind: datanode.MutDelete, Key: keys[i]}
		}),
		result: func(_ int, bv datanode.BatchValue, _ access) error { return bv.Err },
	})
}

// fleetFanout mirrors fanout at the fleet layer: tiny batches
// dispatch to their proxies serially.
func fleetFanout(totalKeys, subs int) int {
	if totalKeys <= 8 {
		return 1
	}
	return subs
}

// fleetSub is the slice of a fleet batch assigned to one proxy.
type fleetSub struct {
	proxy *Proxy
	idxs  []int
}

// assign groups batch positions by owning proxy group, picking one
// random member per group for the whole batch (the limited fan-out
// hash strategy applied once per batch instead of once per key).
func (f *Fleet) assign(keys [][]byte) []*fleetSub {
	members := make([]*Proxy, len(f.groups))
	f.mu.Lock()
	for g, ps := range f.groups {
		members[g] = ps[f.rng.Intn(len(ps))]
	}
	f.mu.Unlock()
	// Like groupByNode: count first, so every share's positions are cut
	// from one allocation.
	group, count := make([]int, len(keys)), make([]int, len(f.groups))
	for i, k := range keys {
		group[i] = int(partition.Hash(k) % uint64(len(f.groups)))
		count[group[i]]++
	}
	buf := make([]int, len(keys))
	subs := make([]*fleetSub, len(f.groups))
	var order []*fleetSub
	for i, g := range group {
		if subs[g] == nil {
			subs[g] = &fleetSub{proxy: members[g], idxs: buf[:0:count[g]]}
			buf = buf[count[g]:]
			order = append(order, subs[g])
		}
		subs[g].idxs = append(subs[g].idxs, i)
	}
	return order
}

// scatter splits a fleet batch by owning proxy and runs fn once per
// share, concurrently for all but tiny batches.
func (f *Fleet) scatter(keys [][]byte, fn func(p *Proxy, idxs []int)) {
	subs := f.assign(keys)
	runBounded(len(subs), fleetFanout(len(keys), len(subs)), func(si int) {
		fn(subs[si].proxy, subs[si].idxs)
	})
}

// pick gathers the batch positions idxs of all.
func pick[T any](all []T, idxs []int) []T {
	sel := make([]T, len(idxs))
	for j, i := range idxs {
		sel[j] = all[i]
	}
	return sel
}

// BatchGet reads keys across the fleet: keys group per proxy (one
// routing decision per group), and each proxy executes its share as a
// single admitted batch. The returned slices are parallel to keys.
func (f *Fleet) BatchGet(ctx context.Context, keys [][]byte) (values [][]byte, errs []error) {
	values = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	f.scatter(keys, func(p *Proxy, idxs []int) {
		vs, es := p.BatchGet(ctx, pick(keys, idxs))
		for j, i := range idxs {
			values[i], errs[i] = vs[j], es[j]
		}
	})
	return values, errs
}

// BatchPut writes kvs across the fleet; errs is parallel to kvs.
func (f *Fleet) BatchPut(ctx context.Context, kvs []KV) []error {
	errs := make([]error, len(kvs))
	keys := make([][]byte, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	f.scatter(keys, func(p *Proxy, idxs []int) {
		for j, err := range p.BatchPut(ctx, pick(kvs, idxs)) {
			errs[idxs[j]] = err
		}
	})
	return errs
}

// BatchDelete removes keys across the fleet; errs is parallel to keys.
func (f *Fleet) BatchDelete(ctx context.Context, keys [][]byte) []error {
	errs := make([]error, len(keys))
	f.scatter(keys, func(p *Proxy, idxs []int) {
		for j, err := range p.BatchDelete(ctx, pick(keys, idxs)) {
			errs[idxs[j]] = err
		}
	})
	return errs
}

// BatchExists reports key existence across the fleet without value
// transfer; both slices are parallel to keys.
func (f *Fleet) BatchExists(ctx context.Context, keys [][]byte) (exists []bool, errs []error) {
	exists = make([]bool, len(keys))
	errs = make([]error, len(keys))
	f.scatter(keys, func(p *Proxy, idxs []int) {
		ex, es := p.BatchExists(ctx, pick(keys, idxs))
		for j, i := range idxs {
			exists[i], errs[i] = ex[j], es[j]
		}
	})
	return exists, errs
}
