package lavastore

import (
	"bytes"
	"errors"
	"fmt"
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
	// MemtableBytes is the flush threshold. Defaults to 4 MiB.
	MemtableBytes int64
	// MaxTables is the SSTable count that triggers a full compaction.
	// Defaults to 8.
	MaxTables int
	// SyncWrites makes every Put sync the WAL. Defaults to false
	// (periodic durability, matching eventual-consistency deployments).
	SyncWrites bool
	// DisableAutoCompact turns off compaction scheduling (tests).
	DisableAutoCompact bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FS == nil {
		out.FS = NewMemFS()
	}
	if out.Clock == nil {
		out.Clock = clock.Real{}
	}
	if out.MemtableBytes <= 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.MaxTables <= 0 {
		out.MaxTables = 8
	}
	if out.Dir == "" {
		out.Dir = "lavastore"
	}
	return out
}

// Stats reports engine internals for observability and tests.
type Stats struct {
	MemtableBytes   int64
	MemtableKeys    int
	Tables          int
	TableBytes      int64
	Flushes         int64
	Compactions     int64
	GetIOReads      int64 // cumulative simulated disk reads served
	ExpiredDropped  int64 // records dropped by TTL at compaction
	TombstonesAlive int64
}

// DB is the storage engine instance backing one partition replica on a
// DataNode.
type DB struct {
	opt Options

	mu        sync.RWMutex
	mem       *skiplist.List
	imm       []*skiplist.List // immutable memtables awaiting flush; replaced whole like tables
	tables    []*Table         // newest first; replaced whole, never written in place
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
	o := opt.withDefaults()
	db := &DB{opt: o, mem: skiplist.New(1), retain: noRetention}
	oldWALs, err := db.recover()
	if err != nil {
		return nil, err
	}
	if _, err := db.rotateWAL(); err != nil {
		return nil, err
	}
	// Re-log replayed records into the fresh WAL before discarding the
	// old logs, so a crash immediately after Open loses nothing.
	if db.mem.Len() > 0 {
		it := db.mem.NewIterator()
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
			return nil, fmt.Errorf("lavastore: recover open %s: %w", n, err)
		}
		t, err := openTable(f, n)
		if err != nil {
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
		db.tables = append(db.tables, t)
	}
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
				if cur, ok := db.mem.Get(key); ok {
					if cr, cerr := decodeRecord(cur); cerr == nil && cr.Seq > r.Seq {
						return nil
					}
				}
				if r.Seq >= db.seq {
					db.seq = r.Seq
				}
			}
			db.mem.Put(append([]byte(nil), key...), append([]byte(nil), rec...))
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
	if db.wal != nil {
		db.wal.Close()
		old = db.walName
		db.segs = append(db.segs, walSeg{name: db.walName, lo: db.liveLo, hi: db.seq})
	}
	db.liveLo = db.seq + 1
	db.wal = newWALWriter(f)
	db.walName = name
	return old, nil
}

// Put stores value under key with an optional TTL (0 = no expiry).
func (db *DB) Put(key, value []byte, ttl time.Duration) error {
	_, err := db.write(key, record{Kind: kindSet, Value: value}, ttl)
	return err
}

// PutSeq is Put returning the record's assigned sequence number — the
// offset the write commits at in the change log. The DataNode uses it
// as the write's replication position, keeping sequence numbers
// identical across replicas.
func (db *DB) PutSeq(key, value []byte, ttl time.Duration) (uint64, error) {
	return db.write(key, record{Kind: kindSet, Value: value}, ttl)
}

// Delete removes key by writing a tombstone.
func (db *DB) Delete(key []byte) error {
	_, err := db.write(key, record{Kind: kindDelete}, 0)
	return err
}

// DeleteSeq is Delete returning the tombstone's assigned sequence
// number (see PutSeq).
func (db *DB) DeleteSeq(key []byte) (uint64, error) {
	return db.write(key, record{Kind: kindDelete}, 0)
}

// expireAt converts a TTL into the record's second-resolution deadline.
// The deadline truncates to whole seconds (so a record never outlives
// its requested TTL at this resolution) but is clamped to at least one
// second past now: plain truncation would let a sub-second TTL written
// late in a wall-clock second expire instantly — or even in the past.
func expireAt(now time.Time, ttl time.Duration) int64 {
	at := now.Add(ttl).Unix()
	if min := now.Unix() + 1; at < min {
		at = min
	}
	return at
}

func (db *DB) write(key []byte, r record, ttl time.Duration) (uint64, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, ErrClosed
	}
	db.seq++
	r.Seq = db.seq
	if ttl > 0 {
		r.ExpireAt = expireAt(db.opt.Clock.Now(), ttl)
	}
	rec := encodeRecord(r)
	if err := db.wal.Append(key, rec); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	if db.opt.SyncWrites {
		if err := db.wal.Sync(); err != nil {
			db.mu.Unlock()
			return 0, err
		}
	}
	db.walBytes += int64(len(key) + len(rec) + 16)
	db.mem.Put(append([]byte(nil), key...), rec)
	seq := r.Seq
	if fn := db.notify; fn != nil {
		fn(db.seq)
	}
	needFlush := db.needFlushLocked()
	db.mu.Unlock()
	if needFlush {
		return seq, db.Flush()
	}
	return seq, nil
}

// BatchOp is one write in a group-committed WriteBatch: a put, or a
// tombstone delete when Delete is set (Value and TTL then ignored).
type BatchOp struct {
	Key    []byte
	Value  []byte
	TTL    time.Duration
	Delete bool
}

// WriteBatch applies ops under a single lock acquisition, a single WAL
// device write, and (with SyncWrites) a single sync — group commit.
// Records keep their individual framing and sequence numbers, so WAL
// replay and compaction are oblivious to batching.
func (db *DB) WriteBatch(ops []BatchOp) error {
	_, err := db.writeBatch(ops)
	return err
}

// WriteBatchSeq is WriteBatch returning the LAST sequence number the
// batch committed at; the ops hold the contiguous range ending there,
// in order. The DataNode uses it to position the whole batch in the
// replication stream atomically with the engine commit.
func (db *DB) WriteBatchSeq(ops []BatchOp) (uint64, error) {
	return db.writeBatch(ops)
}

func (db *DB) writeBatch(ops []BatchOp) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, ErrClosed
	}
	now := db.opt.Clock.Now()
	keys := make([][]byte, len(ops))
	recs := make([][]byte, len(ops))
	// One arena holds every copied key and encoded record; the
	// memtable retains stable sub-slices of it.
	size := 0
	for _, op := range ops {
		size += len(op.Key) + recordBound(record{Value: op.Value})
	}
	arena := make([]byte, 0, size)
	for i, op := range ops {
		db.seq++
		r := record{Kind: kindSet, Value: op.Value, Seq: db.seq}
		if op.Delete {
			r = record{Kind: kindDelete, Seq: db.seq}
		} else if op.TTL > 0 {
			r.ExpireAt = expireAt(now, op.TTL)
		}
		start := len(arena)
		arena = append(arena, op.Key...)
		keys[i] = arena[start:len(arena):len(arena)]
		start = len(arena)
		arena = appendRecord(arena, r)
		recs[i] = arena[start:len(arena):len(arena)]
	}
	if err := db.wal.AppendMany(keys, recs); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	if db.opt.SyncWrites {
		if err := db.wal.Sync(); err != nil {
			db.mu.Unlock()
			return 0, err
		}
	}
	for i := range ops {
		db.walBytes += int64(len(keys[i]) + len(recs[i]) + 16)
		db.mem.Put(keys[i], recs[i])
	}
	last := db.seq
	if fn := db.notify; fn != nil {
		fn(db.seq)
	}
	needFlush := db.needFlushLocked()
	db.mu.Unlock()
	if needFlush {
		return last, db.Flush()
	}
	return last, nil
}

// needFlushLocked reports whether the memtable should be flushed: it is
// full, or the live WAL has outgrown it. The WAL bound matters for
// overwrite-heavy workloads — rewriting the same keys keeps the
// memtable small while the log (and with it crash-recovery replay
// time) grows without limit.
// +locked:db.mu
func (db *DB) needFlushLocked() bool {
	return db.mem.Bytes() >= db.opt.MemtableBytes ||
		db.walBytes >= 4*db.opt.MemtableBytes
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

// Get returns the value stored under key. Expired and deleted keys
// return ErrNotFound. The returned value is a copy.
func (db *DB) Get(key []byte) (GetResult, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return GetResult{}, ErrClosed
	}
	mem := db.mem
	imm := db.imm
	tables := db.tables
	db.mu.RUnlock()

	now := db.opt.Clock.Now().Unix()
	// Memtable first, then immutable memtables newest-first.
	if rec, ok := mem.Get(key); ok {
		return db.finishGet(rec, 0, now)
	}
	for i := len(imm) - 1; i >= 0; i-- {
		if rec, ok := imm[i].Get(key); ok {
			return db.finishGet(rec, 0, now)
		}
	}
	ioReads := 0
	for _, t := range tables {
		rec, found, ios, err := t.Get(key)
		ioReads += ios
		if err != nil {
			return GetResult{IOReads: ioReads}, err
		}
		if found {
			db.getIOReads.Add(int64(ioReads))
			return db.finishGet(rec, ioReads, now)
		}
	}
	db.getIOReads.Add(int64(ioReads))
	return GetResult{IOReads: ioReads}, ErrNotFound
}

func (db *DB) finishGet(rec []byte, ioReads int, now int64) (GetResult, error) {
	r, err := decodeRecord(rec)
	if err != nil {
		return GetResult{IOReads: ioReads}, err
	}
	if r.Kind == kindDelete || r.expired(now) {
		return GetResult{IOReads: ioReads}, ErrNotFound
	}
	return GetResult{Value: append([]byte(nil), r.Value...), IOReads: ioReads, ExpireAt: r.ExpireAt}, nil
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
// whether the table count crossed the compaction threshold.
func (db *DB) doFlush() (tooMany bool, err error) {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return false, ErrClosed
	}
	if db.mem.Len() == 0 {
		db.mu.Unlock()
		return false, nil
	}
	frozen := db.mem
	// imm and tables are replaced whole, never written in place: Get
	// reads the slices it snapshotted after dropping mu.
	db.imm = append(db.imm[:len(db.imm):len(db.imm)], frozen)
	db.mem = skiplist.New(1)
	// The old WAL holds frozen's records; it must outlive this flush
	// (removed below only once the SSTable is installed), or a crash
	// mid-flush would lose every acknowledged write in frozen.
	oldWAL, err := db.rotateWAL()
	if err != nil {
		db.mu.Unlock()
		return false, err
	}
	num := db.nextFile
	db.nextFile++
	db.mu.Unlock()

	name := fmt.Sprintf("%06d.sst", num)
	f, err := db.opt.FS.Create(db.filePath(name))
	if err != nil {
		return false, err
	}
	w := newTableWriter(f)
	it := frozen.NewIterator()
	for it.Next() {
		if err := w.Add(it.Key(), it.Value()); err != nil {
			f.Close()
			return false, err
		}
	}
	if err := w.Finish(); err != nil {
		f.Close()
		return false, err
	}
	f.Close()
	rf, err := db.opt.FS.Open(db.filePath(name))
	if err != nil {
		return false, err
	}
	t, err := openTable(rf, name)
	if err != nil {
		return false, err
	}

	db.mu.Lock()
	// Remove frozen from imm and install the table as newest, both as
	// fresh slices (see the freeze above).
	var imm []*skiplist.List
	for _, m := range db.imm {
		if m != frozen {
			imm = append(imm, m)
		}
	}
	db.imm = imm
	db.tables = append([]*Table{t}, db.tables...)
	db.flushes++
	tooMany = len(db.tables) > db.opt.MaxTables && !db.opt.DisableAutoCompact
	// frozen's records are durable in the installed table; its sealed
	// WAL segment is now deletable — unless the change-log retention
	// floor still references it for Replay.
	var removeWALs []string
	if oldWAL != "" {
		removeWALs = db.sealFlushedLocked(oldWAL)
	}
	db.mu.Unlock()

	for _, n := range removeWALs {
		db.opt.FS.Remove(db.filePath(n))
	}
	return tooMany, nil
}

// Compact merges all SSTables into one, dropping tombstones, shadowed
// versions, and expired records. It blocks concurrent compactions but
// not reads.
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
	old := append([]*Table(nil), db.tables...)
	db.mu.RUnlock()
	if len(old) <= 1 {
		db.flushMu.Unlock()
		return nil
	}
	num := db.allocFileNum()
	db.flushMu.Unlock()

	name := fmt.Sprintf("%06d.sst", num)
	f, err := db.opt.FS.Create(db.filePath(name))
	if err != nil {
		return err
	}
	w := newTableWriter(f)
	now := db.opt.Clock.Now().Unix()
	var dropped int64

	merge := newMergeIterator(old)
	for merge.Next() {
		rec := merge.Rec()
		r, err := decodeRecord(rec)
		if err != nil {
			f.Close()
			return err
		}
		if r.Kind == kindDelete || r.expired(now) {
			dropped++
			continue
		}
		if err := w.Add(merge.Key(), rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := merge.Err(); err != nil {
		f.Close()
		return err
	}
	if err := w.Finish(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	rf, err := db.opt.FS.Open(db.filePath(name))
	if err != nil {
		return err
	}
	t, err := openTable(rf, name)
	if err != nil {
		return err
	}

	db.mu.Lock()
	// Replace exactly the tables we merged; tables flushed during the
	// compaction stay in front (they are newer).
	oldSet := make(map[*Table]bool, len(old))
	for _, o := range old {
		oldSet[o] = true
	}
	var next []*Table
	for _, cur := range db.tables {
		if !oldSet[cur] {
			next = append(next, cur)
		}
	}
	next = append(next, t)
	db.tables = next // likewise built fresh
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
	// catches exactly that).
	for i := len(old) - 1; i >= 0; i-- {
		old[i].Close()
		db.opt.FS.Remove(db.filePath(old[i].Name()))
	}
	return nil
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
		MemtableBytes:  db.mem.Bytes(),
		MemtableKeys:   db.mem.Len(),
		Tables:         len(db.tables),
		Flushes:        db.flushes,
		Compactions:    db.compactions,
		GetIOReads:     db.getIOReads.Load(),
		ExpiredDropped: db.expiredDropped,
	}
	for _, t := range db.tables {
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
	if db.wal != nil {
		db.wal.Close()
	}
	for _, t := range db.tables {
		t.Close()
	}
	return nil
}

// mergeIterator merges multiple tables (newest first) into a single
// ascending key stream, emitting only the newest record per key.
type mergeIterator struct {
	iters []*tableIterator // index 0 = newest table
	valid []bool
	key   []byte
	rec   []byte
	err   error
}

func newMergeIterator(tables []*Table) *mergeIterator {
	m := &mergeIterator{
		iters: make([]*tableIterator, len(tables)),
		valid: make([]bool, len(tables)),
	}
	for i, t := range tables {
		m.iters[i] = t.iterator()
		m.valid[i] = m.iters[i].Next()
	}
	return m
}

// Next advances to the next distinct key, preferring the newest table's
// record when multiple tables contain the key.
func (m *mergeIterator) Next() bool {
	// Find the smallest key among valid iterators; ties resolved by
	// lowest index (newest).
	best := -1
	for i, ok := range m.valid {
		if !ok {
			continue
		}
		if best == -1 || bytes.Compare(m.iters[i].Key(), m.iters[best].Key()) < 0 {
			best = i
		}
	}
	if best == -1 {
		for _, it := range m.iters {
			if it.Err() != nil {
				m.err = it.Err()
			}
		}
		return false
	}
	m.key = append(m.key[:0], m.iters[best].Key()...)
	m.rec = append(m.rec[:0], m.iters[best].Rec()...)
	// Advance every iterator positioned at this key.
	for i, ok := range m.valid {
		if ok && bytes.Equal(m.iters[i].Key(), m.key) {
			m.valid[i] = m.iters[i].Next()
		}
	}
	return true
}

func (m *mergeIterator) Key() []byte { return m.key }
func (m *mergeIterator) Rec() []byte { return m.rec }
func (m *mergeIterator) Err() error  { return m.err }
