package lavastore

import (
	"bytes"

	"abase/internal/skiplist"
)

// ScanEntry is one live record: Key and Value (nil under keysOnly)
// with the record's TTL deadline and commit sequence.
type ScanEntry struct {
	Key   []byte
	Value []byte
	// ExpireAt is the TTL deadline in Unix seconds, 0 for none, so a
	// copy can rewrite the record without making it immortal.
	ExpireAt int64
	// Seq is the sequence the record committed at, so a copy can keep
	// the record's change-log offset on its destination.
	Seq uint64
}

// Scan invokes fn for every live record in ascending key order, merging
// the memtable, immutable memtables, and SSTables. Deleted and expired
// records are skipped. fn returning false stops the scan. The entry's
// Key and Value are only valid during the call; copy to retain.
//
// Scan is the whole-replica read: repair, migration and the split
// rehash copy a partition through it. Client-facing traversal uses the
// bounded ScanRange instead.
func (db *DB) Scan(fn func(ScanEntry) bool) error {
	ms, err := db.scanner(nil)
	if err != nil {
		return err
	}
	defer ms.release()
	now := db.opt.Clock.Now().Unix()
	for key, rec, ok := ms.next(); ok; key, rec, ok = ms.next() {
		r, err := decodeRecord(rec)
		if err != nil {
			return err
		}
		if r.Kind == kindSet && !r.expired(now) && !fn(ScanEntry{Key: key, Value: r.Value, ExpireAt: r.ExpireAt, Seq: r.Seq}) {
			return nil
		}
	}
	return ms.checkErr()
}

// ScanPage is the result of one bounded ScanRange call.
type ScanPage struct {
	// Entries holds the live pairs found, in ascending key order.
	Entries []ScanEntry
	// NextKey is the inclusive resume point for the next ScanRange
	// call, or nil when the requested range is exhausted.
	NextKey []byte
	// Bytes is the RU-billable payload: the summed key+value sizes of
	// the returned entries.
	Bytes int64
	// Examined counts merged records visited, including tombstones and
	// expired records that were skipped — the engine's actual work,
	// which the DataNode translates into simulated I/O time.
	Examined int
}

// DefaultScanLimit is the entry cap used when ScanRange is called with
// a non-positive limit.
const DefaultScanLimit = 256

// MaxScanLimit caps one page's limit so the examine-cap arithmetic
// cannot overflow on absurd requests; traversals are resumable, so a
// larger page serves no purpose.
const MaxScanLimit = 1 << 20

// scanExamineFactor bounds how many merged records one ScanRange call
// may visit, as a multiple of its entry limit. Without it a range of
// tombstones or expired records would make a single "bounded" call walk
// the whole keyspace; with it the call returns early with a usable
// NextKey and the caller pays for the next stretch separately.
const scanExamineFactor = 32

// ScanRange returns up to limit live records with key >= start, in
// ascending order, merging all storage layers and skipping tombstones
// and TTL-expired records exactly like Get. A nil start begins at the
// first key; a non-positive limit means DefaultScanLimit. Entries are
// copies; keysOnly leaves their Values nil (KEYS/DBSIZE traffic) but
// keeps Bytes' billing, value sizes included, since the engine read the
// records either way. The page reports the billable bytes it carries
// and an inclusive NextKey to resume from, so callers can traverse a
// keyspace in quota-admitted increments.
func (db *DB) ScanRange(start []byte, limit int, keysOnly bool) (ScanPage, error) {
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	limit = min(limit, MaxScanLimit)
	ms, err := db.scanner(start)
	if err != nil {
		return ScanPage{}, err
	}
	defer ms.release()
	now := db.opt.Clock.Now().Unix()
	maxExamine := limit * scanExamineFactor
	var page ScanPage
	for len(page.Entries) < limit && page.Examined < maxExamine {
		k, rec, ok := ms.next()
		if !ok {
			return page, ms.checkErr()
		}
		page.Examined++
		r, err := decodeRecord(rec)
		if err != nil {
			return page, err
		}
		if r.Kind != kindSet || r.expired(now) {
			continue
		}
		e := ScanEntry{Key: append([]byte(nil), k...), ExpireAt: r.ExpireAt, Seq: r.Seq}
		if !keysOnly {
			e.Value = append([]byte(nil), r.Value...)
		}
		page.Bytes += int64(len(k) + len(r.Value))
		page.Entries = append(page.Entries, e)
	}
	if err := ms.checkErr(); err != nil {
		return page, err
	}
	if k, ok := ms.peek(); ok {
		page.NextKey = append([]byte(nil), k...)
	}
	return page, nil
}

// mergedScanner yields the newest record per distinct key in ascending
// key order across its sources: every layer for Scan and ScanRange,
// the input tables for compaction. Each source's current key is cached
// beside it, so picking the next key costs no calls into the sources.
type mergedScanner struct {
	heads   []head // newest source first
	lastKey []byte
	failed  error
	ref     *viewRef // the count of the view a DB scanner reads; nil for compaction's
}

// head is one source and its current key (ok false once exhausted).
type head struct {
	src scanSource
	key []byte
	ok  bool
}

// scanner snapshots every storage layer and merges it from the first
// key >= start (nil start = the first key). The caller releases it.
func (db *DB) scanner(start []byte) (*mergedScanner, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, ErrClosed
	}
	// Sources ordered newest first so the first occurrence of a key is
	// its newest record.
	v := db.acquireLocked()
	db.mu.RUnlock()
	sources := make([]scanSource, 0, 1+len(v.imm)+len(v.tables))
	sources = append(sources, memSource{v.mem.NewIterator()})
	for i := len(v.imm) - 1; i >= 0; i-- {
		sources = append(sources, memSource{v.imm[i].NewIterator()})
	}
	ms := newMergedScanner(sources, v.tables, start)
	ms.ref = v.viewRef
	return ms, nil
}

// release lets go of the layers a DB scanner read.
func (m *mergedScanner) release() { m.ref.release() }

// newMergedScanner merges sources followed by tables, each list newest
// first, positioning every source at the first key >= start.
func newMergedScanner(sources []scanSource, tables []*Table, start []byte) *mergedScanner {
	for _, t := range tables {
		sources = append(sources, t.iterator())
	}
	m := &mergedScanner{heads: make([]head, len(sources))}
	for i, s := range sources {
		m.heads[i].src = s
		m.load(&m.heads[i], s.seek(start))
	}
	return m
}

// load caches h's position after a seek or step that reported ok, and
// keeps the first source failure.
func (m *mergedScanner) load(h *head, ok bool) {
	if h.ok = ok; ok {
		h.key = h.src.Key()
	} else if err := h.src.Err(); err != nil && m.failed == nil {
		m.failed = err
	}
}

// checkErr reports the first source failure. A source that hit an I/O
// or corruption error looks exhausted; without this check a scan would
// silently truncate — returning "complete" results that miss every
// remaining key in the failed source — instead of erroring the way
// point reads do.
func (m *mergedScanner) checkErr() error { return m.failed }

// best returns the index of the source holding the smallest current
// key, preferring the newest source on ties, or -1 when all sources
// are exhausted.
func (m *mergedScanner) best() int {
	best := -1
	for i := range m.heads {
		if h := &m.heads[i]; h.ok && (best == -1 || bytes.Compare(h.key, m.heads[best].key) < 0) {
			best = i
		}
	}
	return best
}

// peek returns the next distinct key without consuming it. The slice
// is only valid until the next call to next.
func (m *mergedScanner) peek() ([]byte, bool) {
	if best := m.best(); best != -1 {
		return m.heads[best].key, true
	}
	return nil, false
}

// next returns the next distinct key and its newest raw record. The
// returned slices are only valid until the following call. The merge
// stops at the first source failure; after a false return, callers must
// consult checkErr to distinguish exhaustion from a failure.
func (m *mergedScanner) next() (key, rec []byte, ok bool) {
	best := m.best()
	if best == -1 || m.failed != nil {
		return nil, nil, false
	}
	m.lastKey = append(m.lastKey[:0], m.heads[best].key...)
	rec = m.heads[best].src.Rec()
	// Advance every source positioned at this key so older shadowed
	// records are consumed with it.
	for i := range m.heads {
		if h := &m.heads[i]; h.ok && bytes.Equal(h.key, m.lastKey) {
			m.load(h, h.src.Next())
		}
	}
	return m.lastKey, rec, true
}

// scanSource is one layer's iterator in a merge. *tableIterator is one
// as it stands; memSource adapts a memtable's.
type scanSource interface {
	// seek positions the source at the first key >= target (nil target
	// = the first key), reporting whether there is one.
	seek(target []byte) bool
	Next() bool
	Key() []byte
	Rec() []byte
	// Err reports a read or corruption failure; a failed source reports
	// false from seek and Next.
	Err() error
}

// memSource is a memtable's iterator; in-memory iteration cannot fail.
type memSource struct{ *skiplist.Iterator }

func (m memSource) seek(target []byte) bool {
	if len(target) == 0 {
		return m.Next()
	}
	return m.Seek(target)
}
func (m memSource) Rec() []byte { return m.Value() }
func (m memSource) Err() error  { return nil }
