package lavastore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/clock"
	"abase/internal/skiplist"
)

// Options configures a DB.
type Options struct {
	// FS is the filesystem the engine stores files on. Defaults to an
	// in-memory filesystem when nil.
	FS FS
	// Dir is the directory (path prefix) for the engine's files.
	Dir string
	// Clock supplies time for TTL expiry. Defaults to the real clock.
	Clock clock.Clock
	// MemtableBytes is the flush threshold. Zero means 4 MiB; Open
	// refuses a negative value.
	MemtableBytes int64
	// MaxTables is the SSTable count that triggers a full compaction.
	// Zero means 8; Open refuses a negative value.
	MaxTables int
	// SyncWrites makes every Commit fsync the WAL before it returns.
	// Defaults to false: a commit is then acknowledged once its WAL
	// write(2) returns, with no fsync, so it survives a process crash but
	// not a machine crash — nothing syncs periodically. (ROADMAP item 8
	// is where a stated ack level lands.)
	SyncWrites bool
	// DisableAutoCompact turns off compaction scheduling (tests).
	DisableAutoCompact bool
}

// withDefaults fills zero fields with their defaults and refuses
// negative ones.
func (o *Options) withDefaults() (Options, error) {
	switch {
	case o.MemtableBytes < 0:
		return Options{}, fmt.Errorf("lavastore: Options.MemtableBytes is negative (%d)", o.MemtableBytes)
	case o.MaxTables < 0:
		return Options{}, fmt.Errorf("lavastore: Options.MaxTables is negative (%d)", o.MaxTables)
	}
	out := *o
	if out.FS == nil {
		out.FS = NewMemFS()
	}
	if out.Clock == nil {
		out.Clock = clock.Real{}
	}
	if out.MemtableBytes == 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.MaxTables == 0 {
		out.MaxTables = 8
	}
	if out.Dir == "" {
		out.Dir = "lavastore"
	}
	return out, nil
}

// Stats reports engine internals for observability and tests.
type Stats struct {
	// MemtableBytes is the live key and record bytes in the memtable.
	MemtableBytes int64
	// MemtablePageBytes is what the memtable and the immutable memtables
	// awaiting flush hold in pages: keys, records live or overwritten,
	// and skiplist nodes.
	MemtablePageBytes int64
	MemtableKeys      int
	Tables            int
	TableBytes        int64
	Flushes           int64
	Compactions       int64
	GetIOReads        int64 // cumulative simulated disk reads served
	ExpiredDropped    int64 // records dropped by TTL at compaction
}

// DB is the storage engine instance backing one partition replica on a
// DataNode.
type DB struct {
	opt Options

	mu        sync.RWMutex
	v         *view // the memtables and tables; see view
	wal       *walWriter
	walName   string
	walBytes  int64 // appended to the live WAL since the last rotation
	seq       uint64
	nextFile  int
	closed    bool
	segs      []walSeg         // sealed WAL segments kept for Replay, oldest first
	liveLo    uint64           // lowest sequence the live WAL may hold
	histLo    uint64           // history floor: Replay below this is truncated
	retain    uint64           // retention floor; noRetention = delete flushed segments
	notify    func(seq uint64) // commit hook, see SetCommitNotify
	flushMu   sync.Mutex       // serializes flushes so table order matches freeze order
	frozenWAL []string         // guarded by flushMu: frozenWAL[i] is the sealed WAL of v.imm[i]
	compactMu sync.Mutex       // serializes compactions

	flushes        int64
	compactions    int64
	getIOReads     atomic.Int64 // bumped by Get outside mu
	expiredDropped int64
}

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lavastore: closed")

// ErrNotFound is returned by Get when the key is absent or expired.
var ErrNotFound = errors.New("lavastore: not found")

// Open creates or recovers a DB in opt.Dir.
func Open(opt Options) (*DB, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	db := &DB{opt: o, retain: noRetention}
	opened := false
	defer func() {
		if !opened { // close what recovery opened
			db.mu.Lock()
			db.releaseFilesLocked()
			db.mu.Unlock()
		}
	}()
	oldWALs, err := db.recover()
	if err != nil {
		return nil, err
	}
	if _, err := db.rotateWAL(); err != nil {
		return nil, err
	}
	// Re-log replayed records into the fresh WAL before discarding the
	// old logs, so a crash immediately after Open loses nothing.
	if db.v.mem.Len() > 0 {
		it := db.v.mem.NewIterator()
		for it.Next() {
			if err := db.wal.Append(it.Key(), it.Value()); err != nil {
				return nil, err
			}
		}
		if err := db.wal.Sync(); err != nil {
			return nil, err
		}
	}
	for _, n := range oldWALs {
		db.opt.FS.Remove(db.filePath(n))
	}
	// Recovery collapsed the replayed logs into surviving newest records,
	// so per-write history before this point is gone: the history floor
	// starts at the next sequence the engine will assign.
	db.histLo = db.seq + 1
	opened = true
	return db, nil
}

func (db *DB) filePath(name string) string { return db.opt.Dir + "/" + name }

// recover loads existing SSTables and replays any WAL left by a crash.
// It returns the names of replayed WAL files for the caller to remove
// once their contents are durable again.
func (db *DB) recover() ([]string, error) {
	names, err := db.opt.FS.List(db.opt.Dir)
	if err != nil {
		return nil, err
	}
	var tableNames, walNames []string
	var tables []*Table
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".sst"):
			tableNames = append(tableNames, n)
		case strings.HasSuffix(n, ".wal"):
			walNames = append(walNames, n)
		}
	}
	// Table numbering encodes age: higher number = newer.
	sort.Slice(tableNames, func(i, j int) bool {
		return tableFileNum(tableNames[i]) > tableFileNum(tableNames[j])
	})
	for _, n := range tableNames {
		if num := tableFileNum(n); num >= db.nextFile {
			db.nextFile = num + 1
		}
		f, err := db.opt.FS.Open(db.filePath(n))
		if err != nil {
			for _, t := range tables {
				t.Close()
			}
			return nil, fmt.Errorf("lavastore: recover open %s: %w", n, err)
		}
		t, err := openTable(f, n)
		if errors.Is(err, errBadTable) {
			// A table that does not parse is a flush or compaction the
			// crash interrupted: its contents are still covered by the
			// WAL (flush keeps the old log until the table is durable)
			// or by the source tables (compaction removes them only
			// after the merged table is installed). Drop the partial
			// file and recover from those instead of failing Open.
			f.Close()
			db.opt.FS.Remove(db.filePath(n))
			continue
		}
		if err != nil { // a read fault, not a torn table: keep the file
			f.Close()
			for _, t := range tables {
				t.Close()
			}
			return nil, fmt.Errorf("lavastore: recover read %s: %w", n, err)
		}
		tables = append(tables, t)
	}
	db.mu.Lock()
	db.installLocked(skiplist.New(1), nil, tables)
	db.mu.Unlock()
	// Replay WALs oldest-first so newer records win.
	sort.Slice(walNames, func(i, j int) bool {
		return tableFileNum(walNames[i]) < tableFileNum(walNames[j])
	})
	for _, n := range walNames {
		f, err := db.opt.FS.Open(db.filePath(n))
		if err != nil {
			return nil, err
		}
		err = replayWAL(f, func(key, rec []byte) error {
			r, derr := decodeRecord(rec)
			if derr == nil {
				// Forced-sequence applies (replication) can leave a log
				// whose append order disagrees with sequence order for the
				// same key; keep the highest-sequence record, not the last
				// appended one.
				if cur, ok := db.v.mem.Get(key); ok {
					if cr, cerr := decodeRecord(cur); cerr == nil && cr.Seq > r.Seq {
						return nil
					}
				}
				if r.Seq >= db.seq {
					db.seq = r.Seq
				}
			}
			db.v.mem.Put(key, rec) // Put copies: replay reuses its buffers
			return nil
		})
		f.Close()
		if err != nil {
			return nil, err
		}
		if num := tableFileNum(n); num >= db.nextFile {
			db.nextFile = num + 1
		}
	}
	return walNames, nil
}

func tableFileNum(name string) int {
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".sst"), ".wal")
	n, err := strconv.Atoi(base)
	if err != nil {
		return -1
	}
	return n
}

// rotateWAL switches appends to a fresh log file and returns the name
// of the previous one ("" on the first rotation). The old log is
// sealed into the change log's segment list stamped with the sequence
// range it covers; it dies only when BOTH conditions hold — its frozen
// memtable's SSTable is durable (crash safety) and the retention floor
// has moved past it (no subscriber still needs it for Replay).
func (db *DB) rotateWAL() (old string, err error) {
	name := fmt.Sprintf("%06d.wal", db.nextFile)
	db.nextFile++
	db.walBytes = 0
	f, err := db.opt.FS.Create(db.filePath(name))
	if err != nil {
		return "", err
	}
	w := newWALWriter(f)
	if db.wal != nil {
		db.wal.Close()
		w.out = db.wal.out // the framing scratch outlives its file
		old = db.walName
		db.segs = append(db.segs, walSeg{name: db.walName, lo: db.liveLo, hi: db.seq})
	}
	db.liveLo = db.seq + 1
	db.wal = w
	db.walName = name
	return old, nil
}

// Put stores value under key with an optional TTL (0 = no expiry),
// counted from the engine clock's now; the clock is read only for a TTL.
func (db *DB) Put(key, value []byte, ttl time.Duration) error {
	op := BatchOp{Key: key, Value: value}
	if ttl > 0 {
		op.ExpireAt = Deadline(db.opt.Clock.Now(), ttl)
	}
	_, _, err := db.Commit([]BatchOp{op}, 0, nil)
	return err
}

// Deadline is the one rule that turns a relative TTL counted from now
// into a record's absolute deadline (Unix seconds), 0 for no TTL
// (ttl <= 0). The deadline truncates to whole seconds (so a record never
// outlives its requested TTL at this resolution) but is clamped to at
// least one second past now: plain truncation would let a sub-second TTL
// written late in a wall-clock second expire instantly — or even in the
// past.
func Deadline(now time.Time, ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return max(now.Add(ttl).Unix(), now.Unix()+1)
}

// BatchOp is one write in a Commit: a put, or a tombstone delete when
// Delete is set (Value and ExpireAt then ignored). ExpireAt is the
// record's absolute deadline in Unix seconds (0 = none), stored as
// given: a follower, a copy and a split hold exactly the deadline the
// primary chose.
type BatchOp struct {
	Key      []byte
	Value    []byte
	ExpireAt int64
	Delete   bool
}

// Commit is the engine's one write: it applies ops in order under one
// lock acquisition, one WAL device write and (with SyncWrites) one sync
// — a group commit when there are several. Records keep their own
// framing and sequence numbers, so WAL replay and compaction are
// oblivious to batching. It returns the sequence the last op committed
// at; the ops hold the contiguous range ending there, and that is the
// offset the DataNode replicates the whole group at.
//
// With at == 0 the engine assigns the next sequences. With at > 0 the
// ops take the range ending at at — the PRIMARY-assigned sequences, which
// keep the change log aligned across replicas so a resume token
// survives a promotion. Every forced record lands in the WAL (history
// must hold every sequence), but the memtable takes it only when no
// newer-sequence record exists for its key, so out-of-order fabric
// delivery cannot make an older write win reads.
//
// A caller that hands the committed bytes on passes stored, as long as
// ops: Commit then fills it, under the commit lock, with each op as the
// memtable holds it — Key and Value are slices of the memtable's pages —
// and returns a Pin that keeps those pages from reuse until released.
// That is how a primary's replication message carries its writes
// without a copy. With a nil stored the Pin is zero. On an error the Pin
// is zero and stored must not be read.
//
// A commit too large for one memtable's page addresses (over half a
// gigabyte) is refused.
func (db *DB) Commit(ops []BatchOp, at uint64, stored []BatchOp) (last uint64, pin Pin, err error) {
	if len(ops) == 0 {
		return 0, pin, nil
	}
	if at > 0 && at < uint64(len(ops)) {
		return 0, pin, fmt.Errorf("lavastore: batch position %d below op count %d", at, len(ops))
	}
	size := int64(0)
	for _, op := range ops {
		size += int64(len(op.Key) + len(op.Value))
	}
	if !skiplist.Fits(size, len(ops)) {
		return 0, pin, fmt.Errorf("lavastore: a commit of %d ops and %d bytes does not fit one memtable", len(ops), size)
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, pin, ErrClosed
	}
	mem := db.v.mem
	base := db.seq + 1
	if at > 0 {
		base = at - uint64(len(ops)) + 1
	}
	// Only a forced range reaching below the end of log can be shadowed.
	guard := at > 0 && base <= db.seq
	// Each record is encoded once, into the memtable's pages, and the WAL
	// frames it from there. A forced record the guard keeps out of the
	// memtable is encoded on the heap instead (rare), with no reference.
	// A single op keeps its slice headers off the heap.
	var oneKey, oneRec [1][]byte
	var oneRef [1]skiplist.ValueRef
	keys, recs, refs := oneKey[:0], oneRec[:0], oneRef[:0]
	if len(ops) > 1 {
		keys, recs, refs = make([][]byte, 0, len(ops)), make([][]byte, 0, len(ops)), make([]skiplist.ValueRef, 0, len(ops))
	}
	for i, op := range ops {
		r := record{Kind: kindSet, Value: op.Value, ExpireAt: op.ExpireAt, Seq: base + uint64(i)}
		if op.Delete {
			r = record{Kind: kindDelete, Seq: r.Seq}
		}
		ref, rec := skiplist.ValueRef(0), []byte(nil)
		if guard && db.shadowedLocked(op.Key, r.Seq) {
			rec = encodeRecord(r)
		} else {
			ref, rec = mem.Alloc(recordLen(r))
			appendRecord(rec[:0], r)
		}
		keys, recs, refs = append(keys, op.Key), append(recs, rec), append(refs, ref)
	}
	if err := db.wal.AppendMany(keys, recs); err != nil {
		db.mu.Unlock()
		return 0, pin, err
	}
	if db.opt.SyncWrites {
		if err := db.wal.Sync(); err != nil {
			db.mu.Unlock()
			return 0, pin, err
		}
	}
	for i, ref := range refs {
		db.walBytes += int64(len(keys[i]) + len(recs[i]) + 16)
		key := keys[i]
		if ref != 0 {
			key = mem.Insert(key, ref)
		} else if stored != nil { // rec is on the heap, and so the key goes
			key = slices.Clone(key)
		}
		if stored != nil {
			s := ops[i]
			s.Key, s.Value = key, nil
			if !s.Delete { // the value is the record's tail
				s.Value = recs[i][len(recs[i])-len(ops[i].Value):]
			}
			stored[i] = s
		}
	}
	if stored != nil {
		pin = Pin{db.acquireLocked().viewRef}
	}
	last = base + uint64(len(ops)) - 1
	db.liveLo = min(db.liveLo, base)
	db.seq = max(db.seq, last)
	if fn := db.notify; fn != nil {
		fn(db.seq)
	}
	needFlush := db.needFlushLocked()
	db.mu.Unlock()
	if needFlush {
		if err := db.Flush(); err != nil {
			pin.Release()
			return last, Pin{}, err
		}
	}
	return last, pin, nil
}

// shadowedLocked reports whether key already has a record newer than
// seq. It fails open on a read error.
// +locked:db.mu
func (db *DB) shadowedLocked(key []byte, seq uint64) bool {
	cur, _, err := lookup(db.v, key, nil)
	return err == nil && recSeq(cur) > seq
}

// needFlushLocked reports whether the memtable should be flushed: it is
// full, or the live WAL has outgrown it. The WAL bound matters for
// overwrite-heavy workloads — rewriting the same keys keeps the
// memtable small while the log (and with it crash-recovery replay
// time) grows without limit. It also bounds the overwritten records the
// memtable's pages keep. Only a memtable configured past a gigabyte can
// fill half its page addresses first.
// +locked:db.mu
func (db *DB) needFlushLocked() bool {
	return db.v.mem.Bytes() >= db.opt.MemtableBytes ||
		db.walBytes >= 4*db.opt.MemtableBytes ||
		db.v.mem.Full()
}

// GetResult carries a Get's value plus the I/O accounting the DataNode
// uses to charge the I/O-WFQ: IOReads is the number of simulated disk
// reads (0 means the engine served the key from memory).
type GetResult struct {
	Value   []byte
	IOReads int
	// ExpireAt is the record's TTL deadline as a Unix timestamp in
	// seconds, or 0 for keys without an expiry. Callers that cache the
	// value must honor it (or decline to cache TTL-bearing values) so a
	// cached copy cannot outlive the record.
	ExpireAt int64
}

// runBufSize is the capacity of a pooled point-read buffer. An index
// run holds at most indexBytes of entries plus the entry that crosses
// that bound, so every run fits one unless that last entry is a large
// value; such a run gets a buffer of its own.
const runBufSize = 2 * indexBytes

// runBufs lends table point reads their index-run buffer.
var runBufs = sync.Pool{New: func() any {
	b := make([]byte, runBufSize)
	return &b
}}

// Get returns the value stored under key. Expired and deleted keys
// return ErrNotFound. The returned value is a copy.
func (db *DB) Get(key []byte) (GetResult, error) {
	buf := runBufs.Get().(*[]byte)
	defer runBufs.Put(buf)
	r, ioReads, v, err := db.live(key, *buf)
	if err != nil {
		return GetResult{IOReads: ioReads}, err
	}
	value := append([]byte(nil), r.Value...)
	v.release()
	return GetResult{Value: value, IOReads: ioReads, ExpireAt: r.ExpireAt}, nil
}

// ExpireAt is the value-free read: key's deadline in Unix seconds (0 for
// none), or ErrNotFound for absent or expired keys. The lookup charges
// the same I/O as a Get.
func (db *DB) ExpireAt(key []byte) (int64, error) {
	buf := runBufs.Get().(*[]byte)
	defer runBufs.Put(buf)
	r, _, v, err := db.live(key, *buf)
	if err != nil {
		return 0, err
	}
	v.release()
	return r.ExpireAt, nil
}

// live reads key's newest record through an acquired view and returns
// it if it is a live value, with the table reads the lookup cost
// (counted in Stats.GetIOReads) and the view, which the caller releases
// once it has copied out what it keeps. Deleted and expired keys return
// ErrNotFound, with the view already released. A record read from a
// memtable lies in its pages, which the view keeps from reuse; one read
// from a table lies in buf, or in a buffer of its own when its index run
// does not fit buf.
func (db *DB) live(key, buf []byte) (r record, ioReads int, v *view, err error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return r, 0, nil, ErrClosed
	}
	v = db.acquireLocked()
	db.mu.RUnlock()
	rec, ioReads, err := lookup(v, key, buf)
	if ioReads > 0 {
		db.getIOReads.Add(int64(ioReads))
	}
	if err == nil {
		r, err = decodeRecord(rec)
	}
	if err == nil && (r.Kind == kindDelete || r.expired(db.opt.Clock.Now().Unix())) {
		err = ErrNotFound
	}
	if err != nil {
		v.release()
		return r, ioReads, nil, err
	}
	return r, ioReads, v, nil
}

// lookup is the engine's one layered point read: the memtable, then the
// immutable memtables newest-first, then the tables newest-first. It
// returns the first record found for key and the table reads it made,
// or ErrNotFound. Callers pass an acquired view or hold db.mu; buf is
// the table reads' buffer, as for Table.Get.
func lookup(v *view, key, buf []byte) (rec []byte, ioReads int, err error) {
	if rec, ok := v.mem.Get(key); ok {
		return rec, 0, nil
	}
	for i := len(v.imm) - 1; i >= 0; i-- {
		if rec, ok := v.imm[i].Get(key); ok {
			return rec, 0, nil
		}
	}
	for _, t := range v.tables {
		rec, found, ios, err := t.Get(key, buf)
		ioReads += ios
		if err != nil || found {
			return rec, ioReads, err
		}
	}
	return nil, ioReads, ErrNotFound
}

// Flush freezes the current memtable and writes it out as an SSTable.
func (db *DB) Flush() error {
	tooMany, err := db.doFlush()
	if err != nil {
		return err
	}
	// Compact outside flushMu: it briefly re-acquires the lock to
	// fence its input snapshot against in-flight flushes.
	if tooMany {
		return db.Compact()
	}
	return nil
}

// doFlush is Flush's body; it acquires flushMu itself and reports
// whether the table count crossed the compaction threshold. It freezes
// the memtable, then writes every frozen memtable oldest first: one a
// failed flush left behind goes before the memtable frozen now, so a
// table's file number stays the age of its content.
func (db *DB) doFlush() (tooMany bool, err error) {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return false, ErrClosed
	}
	if db.v.mem.Len() > 0 {
		// The old WAL holds the frozen memtable's records; it must
		// outlive the flush (sealed below only once the table is
		// installed), or a crash mid-flush would lose every
		// acknowledged write in it.
		oldWAL, err := db.rotateWAL()
		if err != nil {
			db.mu.Unlock()
			return false, err
		}
		imm := db.v.imm
		db.installLocked(skiplist.New(1), append(imm[:len(imm):len(imm)], db.v.mem), db.v.tables)
		db.frozenWAL = append(db.frozenWAL, oldWAL)
	}
	db.mu.Unlock()
	for len(db.frozenWAL) > 0 {
		if tooMany, err = db.flushOldest(db.frozenWAL[0]); err != nil {
			return false, err
		}
		db.frozenWAL = db.frozenWAL[1:]
	}
	return tooMany, nil
}

// flushOldest writes the oldest frozen memtable, v.imm[0], as the
// newest table and seals wal, the segment that holds its records.
// Callers hold flushMu, so only this flush changes v.imm; it reads
// through an acquired view all the same, so that a Close meanwhile
// cannot release the memtable under it.
func (db *DB) flushOldest(wal string) (tooMany bool, err error) {
	db.mu.RLock()
	v := db.acquireLocked()
	db.mu.RUnlock()
	defer v.release()
	mem := v.imm[0]
	t, err := db.buildTable(fmt.Sprintf("%06d.sst", db.allocFileNum()), func(w *tableWriter) error {
		it := mem.NewIterator()
		for it.Next() {
			if err := w.Add(it.Key(), it.Value()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}

	db.mu.Lock()
	if db.closed { // Close released the view this flush would replace
		db.mu.Unlock()
		t.Close()
		return false, ErrClosed
	}
	db.installLocked(db.v.mem, slices.Clone(db.v.imm[1:]), append([]*Table{t}, db.v.tables...))
	db.flushes++
	tooMany = len(db.v.tables) > db.opt.MaxTables && !db.opt.DisableAutoCompact
	// The records are durable in the installed table; the sealed WAL
	// segment is now deletable — unless the change-log retention floor
	// still references it for Replay.
	removeWALs := db.sealFlushedLocked(wal)
	db.mu.Unlock()

	for _, n := range removeWALs {
		db.opt.FS.Remove(db.filePath(n))
	}
	return tooMany, nil
}

// Compact merges all SSTables into one, dropping tombstones, shadowed
// versions, and expired records. It blocks concurrent compactions but
// not reads: a merged-away table closes once the last reader of a view
// holding it is done.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	// Snapshot the inputs and allocate the output's file number under
	// flushMu: with no flush in flight, every table not in the input
	// set is guaranteed a HIGHER number than the output. That keeps
	// file numbers aligned with content age — the invariant recovery's
	// newest-first sort depends on (a concurrent flush that froze
	// before this snapshot but installed after it would otherwise take
	// a lower number than the output while holding newer records).
	db.flushMu.Lock()
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		db.flushMu.Unlock()
		return ErrClosed
	}
	// Only a compaction drops a table, and compactMu admits one at a
	// time, so every view holds old until this one replaces it: it reads
	// them without acquiring a view, which would also keep that view's
	// immutable memtables alive for the whole merge.
	old := db.v.tables
	db.mu.RUnlock()
	if len(old) <= 1 {
		db.flushMu.Unlock()
		return nil
	}
	num := db.allocFileNum()
	db.flushMu.Unlock()

	now := db.opt.Clock.Now().Unix()
	var dropped int64
	t, err := db.buildTable(fmt.Sprintf("%06d.sst", num), func(w *tableWriter) error {
		ms := newMergedScanner(nil, old, nil)
		for key, rec, ok := ms.next(); ok; key, rec, ok = ms.next() {
			r, err := decodeRecord(rec)
			if err != nil {
				return err
			}
			if r.Kind == kindDelete || r.expired(now) {
				dropped++
				continue
			}
			if err := w.Add(key, rec); err != nil {
				return err
			}
		}
		return ms.checkErr()
	})
	if err != nil {
		return err
	}

	db.mu.Lock()
	if db.closed { // the inputs stay on disk, so the merged file is redundant
		db.mu.Unlock()
		t.Close()
		return ErrClosed
	}
	// Replace exactly the tables we merged; tables flushed during the
	// compaction stay in front (they are newer).
	oldSet := make(map[*Table]bool, len(old))
	for _, o := range old {
		oldSet[o] = true
	}
	var next []*Table
	for _, cur := range db.v.tables {
		if !oldSet[cur] {
			next = append(next, cur)
		}
	}
	db.installLocked(db.v.mem, db.v.imm, append(next, t))
	db.compactions++
	db.expiredDropped += dropped
	db.mu.Unlock()

	// Remove the inputs OLDEST-first (old is newest-first). This
	// ordering is what makes dropping tombstones crash-safe without a
	// manifest: a deleted key's tombstone always lives in a strictly
	// newer table than any live version it shadows, so if a crash
	// mid-removal leaves a table holding the live version, the
	// tombstone's table necessarily still exists too and recovery
	// keeps the key dead. Newest-first removal would open the inverse
	// window and resurrect deleted keys (the crash-torture test
	// catches exactly that). A reader still holding a removed table
	// keeps its open file; the last release of a view holding it closes
	// it.
	for i := len(old) - 1; i >= 0; i-- {
		db.opt.FS.Remove(db.filePath(old[i].Name()))
	}
	return nil
}

// buildTable writes the table file name, its entries added by fill,
// and opens it for reading. On an error it closes what it opened and
// removes the partial file, so a failed flush or compaction holds no
// handle and leaves no table behind.
func (db *DB) buildTable(name string, fill func(w *tableWriter) error) (t *Table, err error) {
	path := db.filePath(name)
	f, err := db.opt.FS.Create(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.opt.FS.Remove(path)
		}
	}()
	w := newTableWriter(f)
	if err = fill(w); err == nil {
		err = w.Finish()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rf, err := db.opt.FS.Open(path)
	if err != nil {
		return nil, err
	}
	if t, err = openTable(rf, name); err != nil {
		rf.Close()
		return nil, err
	}
	return t, nil
}

func (db *DB) allocFileNum() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := db.nextFile
	db.nextFile++
	return n
}

// Stats returns a snapshot of engine statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := Stats{
		MemtableBytes:     db.v.mem.Bytes(),
		MemtablePageBytes: db.v.mem.PageBytes(),
		MemtableKeys:      db.v.mem.Len(),
		Tables:            len(db.v.tables),
		Flushes:           db.flushes,
		Compactions:       db.compactions,
		GetIOReads:        db.getIOReads.Load(),
		ExpiredDropped:    db.expiredDropped,
	}
	for _, m := range db.v.imm {
		s.MemtablePageBytes += m.PageBytes()
	}
	for _, t := range db.v.tables {
		s.TableBytes += t.Size()
	}
	return s
}

// Close flushes the memtable and releases all files.
func (db *DB) Close() error {
	if err := db.Flush(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	db.releaseFilesLocked()
	return nil
}

// releaseFilesLocked closes the WAL and gives up the DB's reference to
// the current view, whose tables close and memtables release their pages
// after the last reader's release.
// +locked:db.mu
func (db *DB) releaseFilesLocked() {
	if db.wal != nil {
		db.wal.Close()
	}
	if db.v != nil {
		db.v.dropTables, db.v.dropLists = db.v.tables, db.v.lists()
		db.v.release()
	}
}
