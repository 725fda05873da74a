package datanode

import (
	"context"
	"errors"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// WriteOp is one committed write — a put, or a delete when Delete is set
// (Value and ExpireAt are then ignored): what a mutation came to once the
// primary had decided it, its expiry an absolute deadline every replica
// stores as it is. It is the engine's own batch element, so group
// commits and replication messages hand their ops to LavaStore without a
// conversion copy.
type WriteOp = lavastore.BatchOp

// BatchValue is one key's outcome inside a batch operation. Err is nil
// on success, ErrNotFound for an absent key, or an engine error; the
// other keys in the batch are unaffected.
type BatchValue struct {
	Value    []byte
	Err      error
	CacheHit bool
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none) on
	// reads; caching layers above must not hold TTL-bearing values.
	ExpireAt int64
}

// BatchResult reports one partition sub-batch of a node batch. Values
// is parallel to the sub-batch's keys/ops; RU is the aggregate charge.
// Err is the sub-batch-level outcome (ErrThrottled when the partition
// quota rejected the whole sub-batch, ErrNoPartition, ErrOverloaded);
// when it is non-nil the Values slots are not meaningful.
type BatchResult struct {
	Values  []BatchValue
	RU      float64
	Latency time.Duration
	Err     error
}

// GetBatch is the slice of a node batch that reads one partition.
type GetBatch struct {
	PID  partition.ID
	Keys [][]byte
}

// PutBatch is the slice of a node batch that writes one partition.
// Epoch, when non-zero, is the route epoch the caller believes is
// current; the sub-batch is fenced with ErrStaleEpoch on mismatch.
type PutBatch struct {
	PID   partition.ID
	Ops   []Mutation
	Epoch uint64
}

// batch is the shared shape of the node-batch operations: build turns
// group i into a unit (nil for an empty group, an error for one this
// node cannot serve), every unit runs under ONE request-queue
// admission, and each group's outcome lands in its result slot. The
// result slice is parallel to the caller's groups.
func (n *Node) batch(ctx context.Context, groups int, build func(i int, out *BatchResult) (*unit, error)) []BatchResult {
	out := make([]BatchResult, groups)
	units := make([]*unit, 0, groups)
	slots := make([]*BatchResult, 0, groups)
	for i := range out {
		u, err := build(i, &out[i])
		if err != nil {
			out[i].Err = err
		} else if u != nil {
			units = append(units, u)
			slots = append(slots, &out[i])
		}
	}
	n.run(ctx, units)
	for k, u := range units {
		slots[k].Err, slots[k].RU, slots[k].Latency = u.err, u.billed, u.lat
	}
	return out
}

// readOp reads keys of one partition: a point Get is a readOp of one
// key, a MultiGet sub-batch one of many — one quota charge, one WFQ
// task and one SA-LRU/engine pass over its keys. The value-free form
// (TTL, MultiContains) answers existence and expiry from record
// metadata without transferring values, and is admitted and billed at
// a metadata-sized RU cost per key rather than a full read estimate.
type readOp struct {
	unit
	keys      [][]byte
	vals      []BatchValue // per-key outcome, parallel to keys
	valueFree bool
	// one backs keys and vals for a point read, so the request stays a
	// single heap object.
	one struct {
		k [1][]byte
		v [1]BatchValue
	}
}

// placeRead places r and prices it: the read estimate per key, one I/O
// per key.
func (n *Node) placeRead(r *readOp, pid partition.ID) error {
	if err := n.place(&r.unit, r, pid, false, 0); err != nil {
		return err
	}
	r.class, r.cost = wfq.ClassFor(false, int(r.est.ExpectedReadSize())), r.est.EstimateReadRU()
	if r.valueFree {
		r.class, r.cost = wfq.SmallRead, r.est.EstimateHLenRU()
	}
	r.iops = float64(len(r.keys))
	r.cost *= r.iops
	return nil
}

func (r *readOp) arrive(now time.Time) {
	r.rep.heat.Add(float64(len(r.keys)), now)
	for _, key := range r.keys {
		r.rep.hot.Touch(key, now)
	}
}

// cpu answers what it can from the SA-LRU. Presence there answers the
// value-free form completely: cached values never carry a TTL.
func (r *readOp) cpu() bool {
	needIO := false
	var buf [cacheKeyBuf]byte
	for k, key := range r.keys {
		v, ok := r.n.cache.Lookup(r.rep.cacheKey(buf[:0], key))
		if !ok {
			needIO = true
			continue
		}
		r.vals[k].CacheHit = true
		if !r.valueFree {
			r.vals[k].Value = v
		}
	}
	return needIO
}

func (r *readOp) io() {
	cfg := &r.n.cfg
	var buf [cacheKeyBuf]byte
	for k, key := range r.keys {
		bv := &r.vals[k]
		if bv.CacheHit {
			continue
		}
		var err error
		if r.valueFree {
			burn(cfg.Clock, cfg.Cost.IOReadTime)
			bv.ExpireAt, err = r.rep.db.ExpireAt(key)
		} else {
			var got lavastore.GetResult
			seen := r.rep.writes.Load()
			got, err = r.rep.db.Get(key)
			burn(cfg.Clock, time.Duration(max(got.IOReads, 1))*cfg.Cost.IOReadTime)
			// The SA-LRU has no per-entry expiry, so caching a
			// TTL-bearing value would keep serving it after the record
			// expires — point reads would then disagree with Scan/Keys,
			// which consult the engine. TTL'd values stay uncached. A
			// write that committed since the read began has written
			// through or invalidated already, and the value read may be
			// older than its: the fill then stands down.
			if err == nil && got.ExpireAt == 0 {
				r.n.cache.InsertIf(r.rep.cacheKey(buf[:0], key), got.Value, func() bool { return r.rep.writes.Load() == seen })
			}
			bv.Value, bv.ExpireAt = got.Value, got.ExpireAt
		}
		if errors.Is(err, lavastore.ErrNotFound) {
			err = ErrNotFound
		}
		bv.Err = err // an engine failure is not "absent": it surfaces as itself
	}
}

// settle bills what the keys really cost: a value read at ReadRU of its
// size and hit/miss (which also feeds the estimator), the value-free
// form at the estimate it was admitted at.
func (r *readOp) settle() {
	charged := 0.0
	// The op's keys are tallied here and handed to the shared tenant
	// counters and estimator at once: a batch's concurrent sub-batches
	// would otherwise contend on them key by key.
	var reads ru.ReadBatch
	var failed, cacheHits, cacheMiss int64
	for k := range r.vals {
		bv := &r.vals[k]
		if bv.Err != nil {
			if !r.valueFree && errors.Is(bv.Err, ErrNotFound) {
				// An absent key missed the SA-LRU and still cost a lookup.
				reads.Add(r.est, 0, false)
				cacheMiss++
			}
			failed++
			continue
		}
		if r.valueFree {
			continue
		}
		reads.Add(r.est, len(bv.Value), bv.CacheHit)
		if bv.CacheHit {
			charged += ru.ReadRU(len(bv.Value), 1)
			cacheHits++
		} else {
			charged += ru.ReadRU(len(bv.Value), 0)
			cacheMiss++
		}
	}
	c := r.ts.reqs.Cell()
	if ok := int64(len(r.vals)) - failed; ok > 0 {
		c.Success.Add(ok)
	}
	if failed > 0 {
		c.Errors.Add(failed)
	}
	if cacheHits > 0 {
		c.Hits.Add(cacheHits)
	}
	if cacheMiss > 0 {
		c.Misses.Add(cacheMiss)
	}
	reads.Flush(r.est)
	if r.valueFree {
		charged = r.cost
	}
	r.bill(charged)
}

func (n *Node) multiRead(ctx context.Context, groups []GetBatch, valueFree bool) []BatchResult {
	return n.batch(ctx, len(groups), func(i int, out *BatchResult) (*unit, error) {
		if len(groups[i].Keys) == 0 {
			return nil, nil
		}
		keys := groups[i].Keys
		r := &readOp{keys: keys, vals: make([]BatchValue, len(keys)), valueFree: valueFree}
		if err := n.placeRead(r, groups[i].PID); err != nil {
			return nil, err
		}
		out.Values = r.vals
		return &r.unit, nil
	})
}

// MultiGet executes one node batch of reads: every partition sub-batch
// hosted here is served under a single request-queue admission, as one
// readOp each. The result slice is parallel to groups.
func (n *Node) MultiGet(ctx context.Context, groups []GetBatch) []BatchResult {
	return n.multiRead(ctx, groups, false)
}

// MultiContains resolves key existence for one node batch without
// transferring values (the value-free readOp). In the result, a slot's
// Err is nil when the key exists and ErrNotFound when it does not.
func (n *Node) MultiContains(ctx context.Context, groups []GetBatch) []BatchResult {
	return n.multiRead(ctx, groups, true)
}

// MultiWrite executes one node batch of writes: a single request-queue
// admission for the node batch, and per partition sub-batch one writeOp —
// one WFQ write task, one quota charge at its summed cost, one group
// commit — with per-mutation error slots. Mutations of one sub-batch see
// each other in order. The result slice is parallel to groups.
func (n *Node) MultiWrite(ctx context.Context, groups []PutBatch) []BatchResult {
	return n.batch(ctx, len(groups), func(i int, out *BatchResult) (*unit, error) {
		g := groups[i]
		if len(g.Ops) == 0 {
			return nil, nil
		}
		w := &writeOp{muts: g.Ops, vals: make([]BatchValue, len(g.Ops))}
		if err := n.placeWrite(w, g.PID, g.Epoch); err != nil {
			return nil, err
		}
		out.Values = w.vals
		return &w.unit, nil
	})
}
