package lavastore

// This file is the engine half of the change-data-capture subsystem:
// a durable, offset-addressed change log that rides the existing WAL
// instead of duplicating it. Every committed write already lands in
// the live WAL with its sequence number; the change log adds three
// things on top:
//
//   - segment tracking — rotation seals the old log into a retained
//     segment stamped with the sequence range it covers, instead of
//     deleting it the moment its memtable is durable;
//   - a retention floor — sealed segments below the floor are deleted
//     (the pre-CDC behavior is a floor of "everything", set by
//     default); segments at or above it survive flush and compaction
//     so Replay can serve history to resumed subscribers;
//   - Replay(from, to) — a bounded range read over the sealed
//     segments plus the live tail, returning the exact committed
//     sequence [from, to] or ErrHistoryTruncated. Never a silent gap:
//     a range the log cannot prove complete is an error.
//
// History is per-DB-lifetime: Open collapses the replayed WALs into
// the surviving newest records (overwritten versions are gone), so the
// history floor resets to the recovered sequence and tokens minted
// before a restart replay nothing — they fail with the typed error
// instead of a partial stream.

import (
	"errors"
	"fmt"
	"sort"
)

// noRetention is the default retention floor: no sequence is below it,
// so every flushed segment is deletable — the pre-CDC WAL bound.
const noRetention = ^uint64(0)

// ErrHistoryTruncated is returned by Replay when the requested range
// starts below the history floor: the segments holding those records
// were deleted (no retention was set, the floor moved past them, or
// the DB restarted). Callers match it with errors.Is and restart from
// a fresh position instead of assuming the gap was empty.
var ErrHistoryTruncated = errors.New("lavastore: change history truncated")

// ChangeEvent is one committed write read back from the change log.
type ChangeEvent struct {
	// Seq is the record's sequence number — the replication position
	// the write acknowledged at.
	Seq uint64
	// Key is the written key (a copy).
	Key []byte
	// Value is the written value (a copy; nil for deletes).
	Value []byte
	// Delete reports a tombstone.
	Delete bool
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none).
	ExpireAt int64
}

// walSeg is one sealed (rotated-out) WAL file retained for Replay.
// lo/hi is the sequence range the segment is known to cover; the file
// may additionally hold records below lo (Open's re-log, out-of-order
// forced applies), which Replay filters by sequence.
type walSeg struct {
	name    string
	lo, hi  uint64
	flushed bool // its memtable's SSTable is durable; deletable once below the floor
}

// SetCommitNotify installs fn as the commit hook: it is invoked with
// the current end-of-log sequence after every committed write or
// batch, while the engine lock is held — fn must be fast, must not
// block, and must not call back into the DB. The DataNode uses it to
// wake change-stream pollers; nil uninstalls.
func (db *DB) SetCommitNotify(fn func(seq uint64)) {
	db.mu.Lock()
	db.notify = fn
	db.mu.Unlock()
}

// SetHistoryRetention sets the change-log retention floor: sealed WAL
// segments whose range ends below floor are deleted once their
// memtable is durable; segments reaching floor or beyond are retained
// for Replay. A floor of 0 retains everything; the default (no
// subscribers) retains nothing — rotation deletes flushed segments
// exactly as it did before the change log existed.
func (db *DB) SetHistoryRetention(floor uint64) {
	db.mu.Lock()
	if floor == 0 {
		floor = 1 // retain everything: no segment ends below sequence 1
	}
	db.retain = floor
	remove := db.pruneSegsLocked()
	db.mu.Unlock()
	for _, name := range remove {
		db.opt.FS.Remove(db.filePath(name))
	}
}

// ClearHistoryRetention removes the retention floor: flushed segments
// are deleted again on rotation (and immediately, for any already
// retained).
func (db *DB) ClearHistoryRetention() {
	db.mu.Lock()
	db.retain = noRetention
	remove := db.pruneSegsLocked()
	db.mu.Unlock()
	for _, name := range remove {
		db.opt.FS.Remove(db.filePath(name))
	}
}

// HistoryBounds returns the replayable sequence range: lo is the
// lowest sequence Replay can serve (requests below it fail with
// ErrHistoryTruncated), hi the last committed sequence. lo = hi+1
// means no history is currently replayable.
func (db *DB) HistoryBounds() (lo, hi uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.histLo, db.seq
}

// pruneSegsLocked deletes sealed segments from the front of the list
// while they are both durable (flushed) and wholly below the retention
// floor, advancing the history floor past them. Front-only pruning
// keeps the retained history contiguous. It returns the file names to
// remove (the caller deletes them outside the lock).
// +locked:db.mu
func (db *DB) pruneSegsLocked() []string {
	var remove []string
	for len(db.segs) > 0 && db.segs[0].flushed && db.segs[0].hi < db.retain {
		if next := db.segs[0].hi + 1; next > db.histLo {
			db.histLo = next
		}
		remove = append(remove, db.segs[0].name)
		db.segs = db.segs[1:]
	}
	return remove
}

// sealFlushedLocked marks the named sealed segment's contents durable
// (its frozen memtable's SSTable is installed) and prunes whatever the
// retention floor allows. Returns file names to remove outside the
// lock.
// +locked:db.mu
func (db *DB) sealFlushedLocked(name string) []string {
	for i := range db.segs {
		if db.segs[i].name == name {
			db.segs[i].flushed = true
			break
		}
	}
	return db.pruneSegsLocked()
}

// recSeq extracts an encoded record's sequence number (0 if the record
// does not decode).
func recSeq(rec []byte) uint64 {
	r, err := decodeRecord(rec)
	if err != nil {
		return 0
	}
	return r.Seq
}

// AlignSeq raises the engine's end-of-log sequence to at least pos and
// invalidates replayable history below it. It is the snapshot-adoption
// hook: a replica rebuilt by bulk copy holds the primary's current
// state but not its per-write history, so its change log must refuse
// Replay for offsets it never recorded rather than serve the snapshot
// records as if they were the original stream.
func (db *DB) AlignSeq(pos uint64) {
	db.mu.Lock()
	if pos > db.seq {
		db.seq = pos
	}
	if next := db.seq + 1; next > db.histLo {
		db.histLo = next
	}
	db.mu.Unlock()
}

// Replay returns every committed write with sequence in [from, to],
// in sequence order, reading the retained sealed segments and the
// live WAL tail. to is clamped to the last committed sequence; a range
// that ends up empty returns (nil, nil). The read is consistent under
// the engine's lock, so flush, rotation, and compaction cannot tear
// the tail out from under it.
//
// The contract is exact-or-error: if the log cannot produce the full
// contiguous sequence [from, to] — the range starts below the history
// floor, or a segment needed for the middle of the range is gone —
// Replay returns ErrHistoryTruncated, never a silently partial slice.
func (db *DB) Replay(from, to uint64) ([]ChangeEvent, error) {
	if from == 0 {
		from = 1
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if from < db.histLo {
		return nil, fmt.Errorf("%w: replay from %d, history floor %d", ErrHistoryTruncated, from, db.histLo)
	}
	if to > db.seq {
		to = db.seq
	}
	if from > to {
		return nil, nil
	}
	// Candidate files: sealed segments whose claimed range overlaps
	// [from, to], then the live WAL. Claimed ranges are supersets of
	// the segment's true contents (see walSeg), so overlap filtering
	// never skips a needed record.
	var names []string
	for _, seg := range db.segs {
		if seg.hi >= from && seg.lo <= to {
			names = append(names, seg.name)
		}
	}
	names = append(names, db.walName)

	events := make([]ChangeEvent, 0, to-from+1)
	for _, name := range names {
		f, err := db.opt.FS.Open(db.filePath(name))
		if err != nil {
			return nil, fmt.Errorf("lavastore: replay open %s: %w", name, err)
		}
		err = replayWAL(f, func(key, rec []byte) error {
			r, derr := decodeRecord(rec)
			if derr != nil {
				return derr
			}
			if r.Seq < from || r.Seq > to {
				return nil
			}
			ev := ChangeEvent{
				Seq:      r.Seq,
				Key:      append([]byte(nil), key...),
				Delete:   r.Kind == kindDelete,
				ExpireAt: r.ExpireAt,
			}
			if !ev.Delete {
				ev.Value = append([]byte(nil), r.Value...)
			}
			events = append(events, ev)
			return nil
		})
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	// WAL order is append order, which forced-sequence applies can
	// leave out of sequence order; sort, then prove the range is the
	// exact contiguous committed sequence.
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	if uint64(len(events)) != to-from+1 {
		return nil, fmt.Errorf("%w: replay [%d,%d] found %d of %d records", ErrHistoryTruncated, from, to, len(events), to-from+1)
	}
	for i, ev := range events {
		if ev.Seq != from+uint64(i) {
			return nil, fmt.Errorf("%w: replay [%d,%d] missing seq %d", ErrHistoryTruncated, from, to, from+uint64(i))
		}
	}
	return events, nil
}
