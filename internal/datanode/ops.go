package datanode

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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

// readOne runs a readOp of one key. The error is the pipeline's or,
// failing that, the key's own (ErrNotFound, engine failure).
func (n *Node) readOne(ctx context.Context, pid partition.ID, key []byte, valueFree bool) (OpResult, error) {
	r, err := n.newReadOp(pid, [][]byte{key}, valueFree)
	if err != nil {
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
	ttl, alive := n.RemainingTTL(res.ExpireAt)
	if !alive {
		return 0, false, ErrNotFound // lapsed since the probe
	}
	return ttl, true, nil
}

// Put writes key=value with an optional TTL on the primary replica and
// replicates asynchronously. The zero epoch skips the stale-route
// check (trusted internal callers); proxies use PutAt with the epoch
// from their route cache.
func (n *Node) Put(ctx context.Context, pid partition.ID, key, value []byte, ttl time.Duration) (OpResult, error) {
	return n.PutAt(ctx, pid, 0, key, value, ttl)
}

// PutAt is Put with the caller's route epoch: the write is fenced with
// ErrStaleEpoch when the epoch does not match the replica's, and with
// ErrNotPrimary when this replica no longer serves writes.
func (n *Node) PutAt(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, ttl time.Duration) (OpResult, error) {
	res, err := n.put(ctx, pid, epoch, &putOp{key: key, value: value, ttl: ttl})
	return res.OpResult, err
}

// Delete removes key.
func (n *Node) Delete(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	return n.DeleteAt(ctx, pid, 0, key)
}

// DeleteAt is Delete with the caller's route epoch (see PutAt).
func (n *Node) DeleteAt(ctx context.Context, pid partition.ID, epoch uint64, key []byte) (OpResult, error) {
	res, err := n.put(ctx, pid, epoch, &putOp{key: key, del: true})
	return res.OpResult, err
}

// PutCond selects a conditional-write predicate (Redis SET NX/XX).
type PutCond int

// Conditional-write predicates.
const (
	// CondNone writes unconditionally.
	CondNone PutCond = iota
	// CondNX writes only when the key does not already exist.
	CondNX
	// CondXX writes only when the key already exists.
	CondXX
)

// PutOptions carries the typed per-op options of a conditional write.
type PutOptions struct {
	// TTL sets the new record's expiry (0 = none unless KeepTTL).
	TTL time.Duration
	// KeepTTL preserves the existing record's remaining TTL instead of
	// clearing it (Redis SET KEEPTTL). Ignored when TTL is set.
	KeepTTL bool
	// Cond gates the write on the key's current existence.
	Cond PutCond
	// ReturnOld fetches the key's previous value (Redis SET ... GET).
	ReturnOld bool
}

// PutResult reports one conditional write.
type PutResult struct {
	OpResult
	// Written reports whether the write was applied; false means the
	// NX/XX condition was not met (not an error).
	Written bool
	// Old is the key's previous value (populated only under ReturnOld).
	Old []byte
	// OldExists reports whether the key existed before the write.
	OldExists bool
	// Expiring reports whether the record now carries a TTL — caching
	// layers above must not hold expiring values.
	Expiring bool
}

// PutWith is the conditional form of PutAt: one read-modify-write
// through the primary's write pipeline — a single admission, one WFQ
// write task whose I/O stage probes the existing record, evaluates the
// NX/XX predicate, resolves KEEPTTL, and applies the write — then
// replicated like any other write. The probe and the write happen
// inside one I/O stage, so no other client write can interleave
// between them on this replica.
func (n *Node) PutWith(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, opts PutOptions) (PutResult, error) {
	return n.put(ctx, pid, epoch, &putOp{key: key, value: value, ttl: opts.TTL, rmw: true, opts: opts})
}

// putOp is one point write on a partition primary: a put, a delete, or
// (rmw) the conditional read-modify-write form.
type putOp struct {
	unit
	key, value []byte
	ttl        time.Duration // as requested; under KEEPTTL resolved by the I/O stage
	del        bool
	rmw        bool // probe the record and evaluate opts before writing
	opts       PutOptions

	res      PutResult
	probeLen int    // size of the record the rmw probe read
	seq      uint64 // engine sequence the write committed at (0: nothing written)
	ioErr    error
}

func (n *Node) put(ctx context.Context, pid partition.ID, epoch uint64, p *putOp) (PutResult, error) {
	if err := n.place(&p.unit, p, pid, true, epoch); err != nil {
		return PutResult{}, err
	}
	p.class, p.iops = wfq.ClassFor(true, len(p.value)), 1
	p.cost = ru.WriteRU(len(p.value), n.cfg.Replicas)
	if p.rmw {
		// The admission charge covers the probe read plus the
		// replicated write.
		p.cost += p.est.EstimateReadRU()
		p.iops = 2
	}
	n.run(ctx, []*unit{&p.unit})
	if p.err != nil {
		return PutResult{OpResult: OpResult{Latency: p.lat}}, p.err
	}
	p.res.RU, p.res.Latency = p.billed, p.lat
	return p.res, nil
}

func (p *putOp) heat() {
	p.rep.heat.Add(1)
	p.rep.hot.Touch(p.key)
}

func (p *putOp) cpu() bool { return true } // writes always reach the I/O layer (WAL)

func (p *putOp) io() {
	cfg, db, ck := &p.n.cfg, p.rep.db, p.rep.cacheKey(p.key)
	if p.rmw && !p.probe() {
		return
	}
	burn(cfg.Clock, cfg.Cost.IOWriteTime)
	if p.del {
		// Deleting an absent key reports ErrNotFound and writes no
		// tombstone (matching the batched path and Redis DEL
		// counting). The probe is a real metadata read; charge it as
		// one.
		burn(cfg.Clock, cfg.Cost.IOReadTime)
		if _, err := db.TTL(p.key); errors.Is(err, lavastore.ErrNotFound) {
			p.ioErr = ErrNotFound
		} else {
			p.seq, p.ioErr = db.DeleteSeq(p.key)
		}
		p.n.cache.Delete(ck)
		return
	}
	if p.seq, p.ioErr = db.PutSeq(p.key, p.value, p.ttl); p.ioErr != nil {
		return
	}
	p.res.Written, p.res.Expiring = true, p.ttl > 0
	// Write-through keeps the node cache coherent — except for
	// TTL-bearing values, which the SA-LRU cannot expire and so must
	// not hold (see readOp.io).
	if p.ttl > 0 {
		p.n.cache.Delete(ck)
	} else {
		p.n.cache.Put(ck, p.value)
	}
}

// probe is the read half of the read-modify-write: it reads the
// existing record, evaluates the NX/XX predicate and resolves KEEPTTL,
// reporting whether the write should go ahead.
func (p *putOp) probe() bool {
	cfg := &p.n.cfg
	burn(cfg.Clock, cfg.Cost.IOReadTime) // a real record read
	got, err := p.rep.db.Get(p.key)
	exists := err == nil
	if err != nil && !errors.Is(err, lavastore.ErrNotFound) {
		p.ioErr = err
		return false
	}
	p.res.OldExists, p.probeLen = exists, len(got.Value)
	if p.opts.ReturnOld && exists {
		p.res.Old = got.Value
	}
	if (p.opts.Cond == CondNX && exists) || (p.opts.Cond == CondXX && !exists) {
		return false // condition not met: probe only, no write
	}
	if p.ttl == 0 && p.opts.KeepTTL && exists && got.ExpireAt != 0 {
		if remaining := time.Unix(got.ExpireAt, 0).Sub(cfg.Clock.Now()); remaining > 0 {
			p.ttl = remaining
		}
	}
	return true
}

// settle bills the probe at the size it really read plus the write if
// one was applied, and hands an applied write to the fabric.
func (p *putOp) settle() {
	if p.ioErr != nil {
		p.fail(p.ioErr)
		return
	}
	charged := 0.0
	if p.rmw {
		p.est.ObserveRead(p.probeLen, false)
		charged = ru.ReadRU(p.probeLen, 0)
	}
	if p.seq != 0 {
		charged += ru.WriteRU(len(p.value), p.n.cfg.Replicas)
		// The engine sequence assigned under the commit lock IS the
		// write's replication position: followers apply at the same
		// sequence, so change-log offsets stay comparable across
		// replicas and a resume token survives promotion. (A position
		// counter bumped out here could order two concurrent commits
		// differently from the engine.)
		p.rep.advancePos(p.seq)
		p.n.forward(p.rep, []WriteOp{{Key: p.key, Value: p.value, TTL: p.ttl, Delete: p.del}}, p.seq)
	}
	p.ts.success.Inc()
	p.bill(charged)
}

// apply is the one body behind every system write — replication
// applies, bulk-copy records, split rehash, fixture preload: ops commit
// on the hosted replica of pid as one group, bypassing quota and the
// WFQ (replication traffic is system traffic). The callers differ only
// in the three parameters: seq forces the sequence of the LAST op (the
// ops then take the contiguous range ending there) or, when 0, lets the
// engine assign the next ones; advance raises the replication position
// to the last sequence; forward hands the committed ops to the
// replication fabric.
func (n *Node) apply(pid partition.ID, ops []WriteOp, seq uint64, advance, forward bool) error {
	rep, err := n.getReplica(pid)
	if err != nil || len(ops) == 0 {
		return err
	}
	forced := seq != 0
	if len(ops) == 1 {
		switch op := ops[0]; {
		case forced:
			err = rep.db.ApplyAt(op.Key, op.Value, op.TTL, op.Delete, seq)
		case op.Delete:
			seq, err = rep.db.DeleteSeq(op.Key)
		default:
			seq, err = rep.db.PutSeq(op.Key, op.Value, op.TTL)
		}
	} else if forced {
		err = rep.db.ApplyBatchAt(ops, seq)
	} else {
		seq, err = rep.db.WriteBatchSeq(ops)
	}
	if err != nil {
		return err
	}
	// Invalidate rather than populate: follower reads are rare next to
	// primary traffic, so write-through would fill the cache with
	// values that are seldom read while still risking staleness.
	for _, op := range ops {
		n.cache.Delete(rep.cacheKey(op.Key))
	}
	if advance {
		rep.advancePos(seq)
	}
	if forward {
		n.forward(rep, ops, seq)
	}
	return nil
}

// ApplyReplicated applies system writes directly on a hosted replica at
// engine-assigned sequences, advancing its replication position
// (fixture preload, tests).
func (n *Node) ApplyReplicated(pid partition.ID, ops ...WriteOp) error {
	return n.apply(pid, ops, 0, true, false)
}

// ApplyReplicatedAt is the replication fabric's apply: pos (never 0 —
// engine sequences start at 1) is the sequence the PRIMARY's engine
// committed the last op at. The follower applies the ops at the same
// sequences and adopts pos, so every replica's change log is
// offset-aligned and a subscriber's resume token stays valid across a
// promotion.
func (n *Node) ApplyReplicatedAt(pid partition.ID, pos uint64, ops []WriteOp) error {
	return n.apply(pid, ops, pos, true, false)
}

// ApplyCopied applies one record of a replica-repair bulk copy at its
// SOURCE sequence number, leaving the replication position alone (the
// copy adopts the source's position wholesale once it completes — see
// CopyReplicaTo). Keeping source sequences keeps the destination's
// engine sequence at or below the primary's, so post-repair replicated
// applies are never mistaken for stale ones.
func (n *Node) ApplyCopied(pid partition.ID, seq uint64, key, value []byte, ttl time.Duration) error {
	return n.apply(pid, []WriteOp{{Key: key, Value: value, TTL: ttl}}, seq, false, false)
}

// WriteThrough applies a system write on a partition primary and hands
// it to the replication fabric. The split rehash uses it: migrated
// records and their source tombstones commit on the primary (taking an
// engine sequence) and reach followers through the same FIFO lanes as
// client writes — applying directly on followers would interleave
// differently per replica and misalign the change logs that resume
// tokens index into.
func (n *Node) WriteThrough(pid partition.ID, key, value []byte, ttl time.Duration, del bool) error {
	return n.apply(pid, []WriteOp{{Key: key, Value: value, TTL: ttl, Delete: del}}, 0, true, true)
}

// --- Hash (Redis hash) operations ---
//
// A hash is stored as a single encoded value under its key:
// count uvarint, then per field: flen uvarint | field | vlen uvarint | value.
// Complex-operation RU estimation decomposes HGetAll into HLen + scan
// (§4.1).

func encodeHash(m map[string][]byte) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for f, v := range m {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

func decodeHash(data []byte) (map[string][]byte, error) {
	m := map[string][]byte{}
	if len(data) == 0 {
		return m, nil
	}
	count, s := binary.Uvarint(data)
	if s <= 0 {
		return nil, fmt.Errorf("datanode: corrupt hash header")
	}
	data = data[s:]
	for i := uint64(0); i < count; i++ {
		flen, s := binary.Uvarint(data)
		if s <= 0 || uint64(len(data)) < uint64(s)+flen {
			return nil, fmt.Errorf("datanode: corrupt hash field")
		}
		f := string(data[s : s+int(flen)])
		data = data[s+int(flen):]
		vlen, s2 := binary.Uvarint(data)
		if s2 <= 0 || uint64(len(data)) < uint64(s2)+vlen {
			return nil, fmt.Errorf("datanode: corrupt hash value")
		}
		m[f] = append([]byte(nil), data[s2:s2+int(vlen)]...)
		data = data[s2+int(vlen):]
	}
	return m, nil
}

// FieldValue is one field/value pair of a multi-field hash write.
type FieldValue struct {
	Field string
	Value []byte
}

// HSet sets field=value in the hash at key, returning 1 if the field is
// new and 0 if it overwrote.
func (n *Node) HSet(ctx context.Context, pid partition.ID, key []byte, field string, value []byte) (int, error) {
	return n.HSetMulti(ctx, pid, key, []FieldValue{{Field: field, Value: value}})
}

// readHash loads the hash at key; an absent key reads as the empty
// hash (a stored hash always has at least one field).
func (n *Node) readHash(ctx context.Context, pid partition.ID, key []byte) (map[string][]byte, error) {
	res, err := n.Get(ctx, pid, key)
	if errors.Is(err, ErrNotFound) {
		return map[string][]byte{}, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeHash(res.Value)
}

// HSetMulti sets every field/value pair in the hash at key as ONE
// read-modify-write — one Get and one Put regardless of how many
// fields the command carries — returning how many fields were new.
// Duplicate fields apply left to right (the last value wins, counted
// once if the field was new).
func (n *Node) HSetMulti(ctx context.Context, pid partition.ID, key []byte, fvs []FieldValue) (int, error) {
	if len(fvs) == 0 {
		return 0, nil
	}
	m, err := n.readHash(ctx, pid, key)
	if err != nil {
		return 0, err
	}
	added := 0
	for _, fv := range fvs {
		if _, existed := m[fv.Field]; !existed {
			added++
		}
		m[fv.Field] = fv.Value
	}
	if _, err := n.Put(ctx, pid, key, encodeHash(m), 0); err != nil {
		return 0, err
	}
	return added, nil
}

// HGet returns the value of field in the hash at key.
func (n *Node) HGet(ctx context.Context, pid partition.ID, key []byte, field string) ([]byte, error) {
	m, err := n.readHash(ctx, pid, key)
	if err != nil {
		return nil, err
	}
	v, ok := m[field]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// HLen returns the number of fields in the hash at key.
func (n *Node) HLen(ctx context.Context, pid partition.ID, key []byte) (int, error) {
	m, err := n.HGetAll(ctx, pid, key)
	return len(m), err
}

// HGetAll returns all fields and values of the hash at key. The
// observed length feeds the complex-operation RU estimator.
func (n *Node) HGetAll(ctx context.Context, pid partition.ID, key []byte) (map[string][]byte, error) {
	m, err := n.readHash(ctx, pid, key)
	if len(m) > 0 {
		if rep, rerr := n.getReplica(pid); rerr == nil {
			rep.ts.est.ObserveCollectionLen(len(m))
		}
	}
	return m, err
}

// HDel removes fields from the hash at key, returning how many existed.
func (n *Node) HDel(ctx context.Context, pid partition.ID, key []byte, fields ...string) (int, error) {
	m, err := n.readHash(ctx, pid, key)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, f := range fields {
		if _, ok := m[f]; ok {
			delete(m, f)
			removed++
		}
	}
	if removed > 0 {
		if len(m) == 0 {
			_, err = n.Delete(ctx, pid, key)
		} else {
			_, err = n.Put(ctx, pid, key, encodeHash(m), 0)
		}
		if err != nil {
			return 0, err
		}
	}
	return removed, nil
}

// Expire sets key's TTL, going through the full write pipeline so it
// is charged and replicated like any write.
func (n *Node) Expire(ctx context.Context, pid partition.ID, key []byte, ttl time.Duration) error {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		return err
	}
	_, err = n.Put(ctx, pid, key, res.Value, ttl)
	return err
}

// Persist removes key's TTL, reporting whether an expiry was actually
// removed. A key without a TTL is left untouched (no write, no
// replication); an absent key returns ErrNotFound. Like Expire and
// HSet this is a read-modify-write of two node ops, so a racing write
// between them can be overwritten; Get's ExpireAt supplies the expiry
// check without a separate TTL read.
func (n *Node) Persist(ctx context.Context, pid partition.ID, key []byte) (bool, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		return false, err
	}
	if res.ExpireAt == 0 {
		return false, nil // exists but already persistent
	}
	if _, err := n.Put(ctx, pid, key, res.Value, 0); err != nil {
		return false, err
	}
	return true, nil
}
