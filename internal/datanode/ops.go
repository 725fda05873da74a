package datanode

import (
	"context"
	"errors"
	"sync"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// OpResult reports one completed operation.
type OpResult struct {
	Value    []byte
	CacheHit bool
	RU       float64
	Latency  time.Duration
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none) on
	// reads. Caching layers above must not hold TTL-bearing values past
	// it; this system's caches decline to hold them at all.
	ExpireAt int64
}

// A point op comes from a pool and goes back once its run has returned
// and its result is copied out; a batch op is built per batch. Putting
// an op back drops every reference it holds but its own bound funcs, so
// the pool pins no node, replica, key or value — not even of a closed
// cluster, which the pool's victim cache would otherwise keep alive.
var (
	readOps  = sync.Pool{New: func() any { return new(readOp) }}
	writeOps = sync.Pool{New: func() any { return new(writeOp) }}
)

func (r *readOp) release() {
	fns := r.fns
	*r = readOp{}
	r.fns = fns
	readOps.Put(r)
}

func (w *writeOp) release() {
	fns := w.fns
	*w = writeOp{}
	w.fns = fns
	writeOps.Put(w)
}

// readOne runs a readOp of one key. The error is the pipeline's or,
// failing that, the key's own (ErrNotFound, engine failure).
func (n *Node) readOne(ctx context.Context, pid partition.ID, key []byte, valueFree bool) (OpResult, error) {
	r := readOps.Get().(*readOp)
	defer r.release()
	r.valueFree = valueFree
	r.one.k[0] = key
	r.keys, r.vals = r.one.k[:], r.one.v[:]
	if err := n.placeRead(r, pid); err != nil {
		return OpResult{}, err
	}
	n.run(ctx, []*unit{&r.unit})
	bv := r.vals[0]
	if r.err == nil {
		r.err = bv.Err
	}
	return OpResult{Value: bv.Value, CacheHit: bv.CacheHit, RU: r.billed, Latency: r.lat, ExpireAt: bv.ExpireAt}, r.err
}

// Get reads key from the hosted replica of pid, flowing through the
// full isolation pipeline (see run).
func (n *Node) Get(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	return n.readOne(ctx, pid, key, false)
}

// TTL returns the remaining time-to-live of key (ttl=0, found=true for
// keys without expiry) from record metadata — the value-free read,
// admitted, charged and fair-queued like any other request.
func (n *Node) TTL(ctx context.Context, pid partition.ID, key []byte) (time.Duration, bool, error) {
	res, err := n.readOne(ctx, pid, key, true)
	if err != nil {
		return 0, false, err
	}
	if res.ExpireAt == 0 {
		return 0, true, nil
	}
	// The one place a deadline becomes a remaining duration.
	ttl := time.Unix(res.ExpireAt, 0).Sub(n.cfg.Clock.Now())
	if ttl <= 0 {
		return 0, false, ErrNotFound // lapsed since the probe
	}
	return ttl, true, nil
}

// Put writes key=value with an optional TTL on the primary replica and
// replicates asynchronously. The zero epoch skips the stale-route
// check (trusted internal callers); proxies use PutAt with the epoch
// from their route cache.
func (n *Node) Put(ctx context.Context, pid partition.ID, key, value []byte, ttl time.Duration) (OpResult, error) {
	res, err := n.write(ctx, pid, 0, Mutation{Key: key, Value: value, PutOptions: PutOptions{TTL: ttl}})
	return res.OpResult, err
}

// PutAt is Put with the caller's route epoch: the write is fenced with
// ErrStaleEpoch when the epoch does not match the replica's, and with
// ErrNotPrimary when this replica no longer serves writes.
func (n *Node) PutAt(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, ttl time.Duration) (OpResult, error) {
	res, err := n.write(ctx, pid, epoch, Mutation{Key: key, Value: value, PutOptions: PutOptions{TTL: ttl}})
	return res.OpResult, err
}

// PutResult reports one keyed write.
type PutResult struct {
	OpResult
	// Written reports whether the mutation changed the record; false
	// means there was nothing to do — an unmet NX/XX condition, no such
	// field, no expiry to clear (not an error).
	Written bool
	// Count is the kind's own tally: fields added (MutSetFields) or
	// removed (MutDelFields), otherwise 1 when Written.
	Count int
	// Old is the key's previous value (populated only under ReturnOld).
	Old []byte
	// OldExists reports whether the key existed before the write (known
	// whenever the mutation had to look: every kind but a plain put).
	OldExists bool
	// Expiring reports whether the record now carries a TTL — caching
	// layers above must not hold expiring values.
	Expiring bool
}

// Write runs one mutation on the partition primary, fenced at the
// caller's route epoch like PutAt: a single admission, one quota charge
// and one WFQ write task whose I/O stage reads what the mutation needs
// of the existing record, decides, and commits — so no other client
// write can interleave between the read and the write on this replica —
// then replicated like any other write.
func (n *Node) Write(ctx context.Context, pid partition.ID, epoch uint64, m Mutation) (PutResult, error) {
	return n.write(ctx, pid, epoch, m)
}

func (n *Node) write(ctx context.Context, pid partition.ID, epoch uint64, m Mutation) (PutResult, error) {
	w := writeOps.Get().(*writeOp)
	defer w.release()
	w.one.m[0] = m
	w.muts, w.vals = w.one.m[:], w.one.v[:]
	if err := n.placeWrite(w, pid, epoch); err != nil {
		return PutResult{}, err
	}
	n.run(ctx, []*unit{&w.unit})
	if w.err == nil {
		w.err = w.vals[0].Err
	}
	w.res.RU, w.res.Latency = w.billed, w.lat
	return w.res, w.err
}

// writeOp runs mutations on one partition primary: a point write is a
// writeOp of one mutation, a MultiWrite sub-batch one of many — one
// quota charge, one WFQ task and one engine commit (a group commit when
// more than one mutation writes), with per-mutation error slots.
type writeOp struct {
	unit
	muts []Mutation
	vals []BatchValue // per-mutation error slot, parallel to muts
	// one backs muts, vals, committed and stored for a point write, so
	// the request stays a single heap object (the Replicator copies the
	// slice of stored it keeps, not the bytes).
	one struct {
		m [1]Mutation
		v [1]BatchValue
		c [1]WriteOp
		s [1]WriteOp
	}
	res PutResult // the last mutation's outcome: a point write's result
	// committed is what the engine committed, in order (mutations that
	// left their record alone drop out); lastSeq is the sequence the
	// final op landed at — the whole group's replication position.
	committed []WriteOp
	lastSeq   uint64
	// stored is committed as the engine's memtable holds it, and pin keeps
	// those pages from reuse: both go to the replication fabric.
	stored  []WriteOp
	pin     lavastore.Pin
	charged float64 // probes at what they read, writes at what they stored
	probes  bool    // some mutation reads the record before it writes
	// arrived is the request's arrival in Unix nanoseconds, what its TTLs
	// count from (an int64, not a time.Time, keeps the op in its
	// allocation size class).
	arrived int64
}

// errUncommitted marks, during the I/O stage, the slots whose mutation
// is part of the pending commit; the commit's outcome replaces it.
var errUncommitted = errors.New("datanode: write not committed")

// placeWrite fences w at epoch and prices it: the summed admission
// estimate of its mutations, one I/O per write plus one per record
// probe.
func (n *Node) placeWrite(w *writeOp, pid partition.ID, epoch uint64) error {
	if err := n.place(&w.unit, w, pid, true, epoch); err != nil {
		return err
	}
	size := 0
	for k := range w.muts {
		m := &w.muts[k]
		w.cost += m.AdmitRU(w.est, n.cfg.Replicas)
		w.iops++
		nd := m.need()
		if nd == needRecord {
			w.iops++
		}
		w.probes = w.probes || nd != needNothing
		size += m.size()
	}
	w.class = wfq.ClassFor(true, size)
	return nil
}

func (w *writeOp) arrive(now time.Time) {
	w.arrived = now.UnixNano()
	w.rep.heat.Add(float64(len(w.muts)), now)
	for k := range w.muts {
		w.rep.hot.Touch(w.muts[k].Key, now)
	}
}

func (w *writeOp) cpu() bool { return true } // writes always reach the I/O layer (WAL)

func (w *writeOp) io() {
	n := w.n
	// The I/O-WFQ runs one replica's stages on several threads. A
	// mutation that reads before it writes must see no other write of its
	// key between the two, so it holds the replica's write gate alone;
	// blind puts only share it.
	if gate := &w.rep.writeGate; w.probes {
		gate.Lock()
		defer gate.Unlock()
	} else {
		gate.RLock()
		defer gate.RUnlock()
	}
	// overlay is each touched key's state as the op's own mutations
	// apply in order; the engine only answers for the state before the
	// op, and only a mutation that reads its record asks. A point write
	// has one mutation and needs neither map nor slice, and a blind batch
	// needs no map.
	var overlay map[string]keyState
	if len(w.muts) > 1 {
		if w.probes {
			overlay = make(map[string]keyState)
		}
		w.committed = make([]WriteOp, 0, len(w.muts))
	} else {
		w.committed = w.one.c[:0]
	}
	for k := range w.muts {
		m, slot := &w.muts[k], &w.vals[k]
		cur, nd := overlay[string(m.Key)], m.need()
		if cur.known < nd {
			if cur, slot.Err = w.probe(m.Key, nd); slot.Err != nil {
				continue
			}
		}
		eff, next, count, err := m.apply(cur, lavastore.Deadline(time.Unix(0, w.arrived), m.TTL))
		switch {
		case err != nil:
			slot.Err = err
		case eff == effNotFound:
			slot.Err = ErrNotFound
		case eff != effLeave:
			slot.Err = errUncommitted
			w.committed = append(w.committed, WriteOp{Key: m.Key, Value: next.value, ExpireAt: next.expireAt, Delete: eff == effTombstone})
		}
		written := slot.Err == errUncommitted
		w.res = PutResult{Written: written, Count: count, Expiring: written && next.expireAt != 0, OldExists: cur.exists}
		if m.ReturnOld && cur.exists {
			w.res.Old = cur.value
		}
		if overlay != nil {
			overlay[string(m.Key)] = next
		}
	}
	if len(w.committed) == 0 {
		return
	}
	burn(n.cfg.Clock, time.Duration(len(w.committed))*n.cfg.Cost.IOWriteTime)
	w.stored = w.one.s[:]
	if len(w.committed) > 1 {
		w.stored = make([]WriteOp, len(w.committed))
	}
	last, pin, err := w.rep.db.Commit(w.committed, 0, w.stored)
	for k := range w.vals {
		if w.vals[k].Err == errUncommitted {
			w.vals[k].Err = err
		}
	}
	if err != nil {
		w.committed, w.stored = nil, nil
		return
	}
	w.lastSeq, w.pin = last, pin
	w.rep.writes.Add(1)
	var buf [cacheKeyBuf]byte
	for _, op := range w.committed {
		w.charged += ru.WriteRU(len(op.Value), n.cfg.Replicas) // a tombstone carries no value
		// Write-through keeps the node cache coherent — except for
		// TTL-bearing values, which the SA-LRU cannot expire and so must
		// not hold (see readOp.io).
		if ck := w.rep.cacheKey(buf[:0], op.Key); op.Delete || op.ExpireAt != 0 {
			n.cache.Delete(ck)
		} else {
			n.cache.Insert(ck, op.Value)
		}
	}
}

// probe reads what a mutation needs of key's current record from the
// engine: a real read — metadata for existence (so deleting an absent
// key writes no tombstone), the record for everything else — burned as
// one, and a record read billed at the size it returned.
func (w *writeOp) probe(key []byte, nd need) (keyState, error) {
	cfg := &w.n.cfg
	burn(cfg.Clock, cfg.Cost.IOReadTime)
	st := keyState{known: nd, exists: true}
	var err error
	if nd == needExistence {
		st.expireAt, err = w.rep.db.ExpireAt(key)
	} else {
		var got lavastore.GetResult
		got, err = w.rep.db.Get(key)
		st.value, st.expireAt = got.Value, got.ExpireAt
		w.est.ObserveRead(len(got.Value), false)
		w.charged += ru.ReadRU(len(got.Value), 0)
	}
	if errors.Is(err, lavastore.ErrNotFound) {
		st.exists, err = false, nil
	}
	return st, err
}

// settle counts each mutation's own outcome, hands exactly the committed
// ops to the replication fabric as one message (replication stays
// asynchronous) and bills what the op read and stored.
func (w *writeOp) settle() {
	failed := int64(0)
	for k := range w.vals {
		if w.vals[k].Err != nil {
			failed++
		}
	}
	c := w.ts.reqs.Cell()
	c.Success.Add(int64(len(w.vals)) - failed)
	c.Errors.Add(failed)
	if len(w.committed) > 0 {
		// The engine sequence assigned under the commit lock IS the
		// write's replication position: followers apply the ops at the
		// same contiguous sequences ending at lastSeq, so change-log
		// offsets stay comparable across replicas and a resume token
		// survives promotion. (A position counter bumped out here could
		// order two concurrent commits differently from the engine.)
		w.rep.advancePos(w.lastSeq)
		// No lock is held here: the fabric may apply a point write on
		// the followers on this goroutine.
		w.n.forward(w.rep, w.stored, w.lastSeq, w.pin)
	}
	w.bill(w.charged)
}

// apply is the one body behind every system write — replication
// applies, bulk-copy records, split rehash, fixture preload: ops commit
// on the hosted replica of pid as one group, bypassing quota and the
// WFQ (replication traffic is system traffic). The callers differ only
// in the three parameters: seq is lavastore.DB.Commit's (the forced
// sequence of the last op, or 0 for engine-assigned); advance raises
// the replication position to the last sequence; forward hands the
// committed ops to the replication fabric.
func (n *Node) apply(pid partition.ID, ops []WriteOp, seq uint64, advance, forward bool) error {
	rep, err := n.getReplica(pid)
	if err != nil || len(ops) == 0 {
		return err
	}
	var stored []WriteOp
	if forward {
		stored = make([]WriteOp, len(ops))
	}
	seq, pin, err := rep.db.Commit(ops, seq, stored)
	if err != nil {
		return err
	}
	// Invalidate rather than populate: follower reads are rare next to
	// primary traffic, so write-through would fill the cache with
	// values that are seldom read while still risking staleness.
	rep.writes.Add(1)
	var buf [cacheKeyBuf]byte
	for _, op := range ops {
		n.cache.Delete(rep.cacheKey(buf[:0], op.Key))
	}
	if advance {
		rep.advancePos(seq)
	}
	if forward {
		// No lock is held here (WriteThrough's callers hold none): the
		// fabric may apply the write on the followers on this goroutine.
		n.forward(rep, stored, seq, pin)
	}
	return nil
}

// ApplyReplicated applies system writes directly on a hosted replica
// and advances its replication position. It is the replication fabric's
// apply: pos is the sequence the PRIMARY's engine committed the last op
// at, and the follower applies the ops at the same sequences and adopts
// pos, so every replica's change log is offset-aligned and a
// subscriber's resume token stays valid across a promotion. pos == 0
// lets the engine assign sequences (fixture preload, tests).
func (n *Node) ApplyReplicated(pid partition.ID, pos uint64, ops ...WriteOp) error {
	return n.apply(pid, ops, pos, true, false)
}

// WriteThrough applies a system write on a partition primary and hands
// it to the replication fabric. The split rehash uses it: migrated
// records (with their deadlines as they are) and their source
// tombstones commit on the primary (taking an engine sequence) and reach
// followers through the same FIFO lanes as client writes — applying
// directly on followers would interleave differently per replica and
// misalign the change logs that resume tokens index into.
func (n *Node) WriteThrough(pid partition.ID, op WriteOp) error {
	return n.apply(pid, []WriteOp{op}, 0, true, true)
}
