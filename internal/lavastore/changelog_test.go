package lavastore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
)

// fill writes n sequential keyed records and returns the last assigned
// sequence number.
func fill(t *testing.T, db *DB, n int, tag string) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := put(db, fmt.Sprintf("%s-%04d", tag, i), fmt.Sprintf("v%d", i), 0)
		if err != nil {
			t.Fatalf("Commit: %v", err)
		}
		last = seq
	}
	return last
}

func TestReplayLiveTail(t *testing.T) {
	db := openMem(t, Options{})
	last := fill(t, db, 10, "k")
	if last != 10 {
		t.Fatalf("last seq = %d, want 10", last)
	}
	evs, err := db.Replay(1, 10)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if wantKey := fmt.Sprintf("k-%04d", i); string(ev.Key) != wantKey {
			t.Fatalf("event %d key = %q, want %q", i, ev.Key, wantKey)
		}
		if ev.Delete {
			t.Fatalf("event %d unexpectedly a delete", i)
		}
	}
}

func TestReplaySubrangeAndClamp(t *testing.T) {
	db := openMem(t, Options{})
	fill(t, db, 20, "k")
	evs, err := db.Replay(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 || evs[0].Seq != 5 || evs[3].Seq != 8 {
		t.Fatalf("subrange = %+v", evs)
	}
	// to beyond the end of log clamps.
	evs, err = db.Replay(18, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[2].Seq != 20 {
		t.Fatalf("clamped range = %d events", len(evs))
	}
	// Entirely beyond the end of log is empty, not an error.
	evs, err = db.Replay(21, 30)
	if err != nil || evs != nil {
		t.Fatalf("future range = %v, %v", evs, err)
	}
}

func TestReplayCapturesDeletesAndTTL(t *testing.T) {
	db := openMem(t, Options{Clock: clock.NewSim(time.Unix(1000, 0))})
	db.Put([]byte("a"), []byte("1"), 0)
	db.Put([]byte("b"), []byte("2"), 30*time.Second)
	del(db, []byte("a"))
	evs, err := db.Replay(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[1].ExpireAt == 0 {
		t.Fatal("TTL write lost its deadline in replay")
	}
	if !evs[2].Delete || evs[2].Value != nil || string(evs[2].Key) != "a" {
		t.Fatalf("delete event = %+v", evs[2])
	}
}

// TestReplaySurvivesRotationWithRetention is the satellite's core
// claim: with a retention floor set, Replay crosses WAL rotations and
// flushes without losing history; without one, rotation reclaims the
// segments and Replay reports truncation rather than a silent gap.
func TestReplaySurvivesRotationWithRetention(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 1 << 20, DisableAutoCompact: true})
	db.SetHistoryRetention(1) // retain everything from seq 1

	last := fill(t, db, 50, "a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	last = fill(t, db, 50, "b")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	last = fill(t, db, 50, "c")
	if last != 150 {
		t.Fatalf("last seq = %d", last)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	lo, hi := db.HistoryBounds()
	if lo != 1 || hi != 150 {
		t.Fatalf("bounds = [%d, %d], want [1, 150]", lo, hi)
	}
	evs, err := db.Replay(1, 150)
	if err != nil {
		t.Fatalf("Replay across rotations: %v", err)
	}
	if len(evs) != 150 {
		t.Fatalf("got %d events, want 150", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d", i, ev.Seq)
		}
	}
}

func TestReplayTruncatedWithoutRetention(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 1 << 20})
	fill(t, db, 50, "a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 10, "b")

	// The first 50 records' segment was reclaimed at flush.
	if _, err := db.Replay(1, 60); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatalf("Replay over reclaimed history: %v", err)
	}
	lo, hi := db.HistoryBounds()
	if lo != 51 || hi != 60 {
		t.Fatalf("bounds = [%d, %d], want [51, 60]", lo, hi)
	}
	// The live tail still replays.
	evs, err := db.Replay(51, 60)
	if err != nil || len(evs) != 10 {
		t.Fatalf("live tail replay = %d events, %v", len(evs), err)
	}
}

func TestRetentionFloorAdvancePrunes(t *testing.T) {
	fs := NewMemFS()
	db := openMem(t, Options{FS: fs, MemtableBytes: 1 << 20, DisableAutoCompact: true})
	db.SetHistoryRetention(1)
	fill(t, db, 30, "a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 30, "b")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 30, "c")

	// Floor at 31: the first segment (1..30) is reclaimable.
	db.SetHistoryRetention(31)
	lo, _ := db.HistoryBounds()
	if lo != 31 {
		t.Fatalf("floor after advance = %d, want 31", lo)
	}
	if _, err := db.Replay(1, 90); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatal("pruned history still replayable")
	}
	evs, err := db.Replay(31, 90)
	if err != nil || len(evs) != 60 {
		t.Fatalf("retained range = %d events, %v", len(evs), err)
	}

	// Clearing retention reclaims everything flushed.
	db.ClearHistoryRetention()
	lo, hi := db.HistoryBounds()
	if lo != 61 || hi != 90 {
		t.Fatalf("bounds after clear = [%d, %d], want [61, 90]", lo, hi)
	}
}

// TestRetentionHoldsUnflushedSegment checks crash safety is never
// traded for retention: a sealed segment whose memtable has not been
// flushed to an SSTable is not deletable even when the floor passes it.
func TestRetentionPrunesOnlyFlushed(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 1 << 20, DisableAutoCompact: true})
	db.SetHistoryRetention(1)
	fill(t, db, 20, "a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 20, "b")
	// Floor beyond everything: prune what is durable.
	db.SetHistoryRetention(1000)
	evs, err := db.Replay(21, 40)
	if err != nil || len(evs) != 20 {
		t.Fatalf("live tail after aggressive floor = %d events, %v", len(evs), err)
	}
}

func TestReplayAfterReopenTruncated(t *testing.T) {
	fs := NewMemFS()
	db, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	db.SetHistoryRetention(1)
	fill(t, db, 10, "k")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openMem(t, Options{FS: fs})
	// Restart collapses history: old offsets must be refused, not
	// partially served.
	if _, err := db2.Replay(1, 10); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatalf("Replay over pre-restart history: %v", err)
	}
	lo, hi := db2.HistoryBounds()
	if lo != hi+1 {
		t.Fatalf("fresh bounds = [%d, %d], want empty", lo, hi)
	}
	// New writes replay from the new floor.
	seq, err := put(db2, "new", "v", 0)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := db2.Replay(lo, seq)
	if err != nil || len(evs) != 1 || string(evs[0].Key) != "new" {
		t.Fatalf("post-restart replay = %+v, %v", evs, err)
	}
}

// TestApplyAtAlignsSequence: one-op forced commits (Commit with at > 0)
// take exactly the primary's sequences, and local writes continue after.
func TestApplyAtAlignsSequence(t *testing.T) {
	db := openMem(t, Options{})
	db.SetHistoryRetention(1)
	// A follower applying the primary's stream at forced offsets.
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := put(db, fmt.Sprintf("k%d", seq), "v", seq); err != nil {
			t.Fatal(err)
		}
	}
	_, hi := db.HistoryBounds()
	if hi != 5 {
		t.Fatalf("end of log = %d, want 5", hi)
	}
	evs, err := db.Replay(1, 5)
	if err != nil || len(evs) != 5 {
		t.Fatalf("replay forced stream = %d events, %v", len(evs), err)
	}
	// The next local write continues the sequence.
	seq, err := put(db, "local", "v", 0)
	if err != nil || seq != 6 {
		t.Fatalf("local seq after applies = %d, %v", seq, err)
	}
}

// TestApplyAtOutOfOrderLastWriterWins: a forced commit below a newer
// record for its key is logged but never wins reads.
func TestApplyAtOutOfOrderLastWriterWins(t *testing.T) {
	db := openMem(t, Options{})
	db.SetHistoryRetention(1)
	// Two writes to the same key delivered newest-first (racing fabric
	// lanes): the older apply must not clobber the newer value.
	if _, err := put(db, "k", "newer", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := put(db, "k", "older", 1); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got.Value) != "newer" {
		t.Fatalf("Get = %q, %v (older write won)", got.Value, err)
	}
	// History still holds both records exactly.
	evs, err := db.Replay(1, 2)
	if err != nil || len(evs) != 2 {
		t.Fatalf("replay = %d events, %v", len(evs), err)
	}
	if string(evs[0].Value) != "older" || string(evs[1].Value) != "newer" {
		t.Fatalf("replay order wrong: %q then %q", evs[0].Value, evs[1].Value)
	}

	// Same property across a flush boundary (newer record in a table).
	if _, err := put(db, "j", "newer", 4); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := put(db, "j", "older", 3); err != nil {
		t.Fatal(err)
	}
	got, err = db.Get([]byte("j"))
	if err != nil || string(got.Value) != "newer" {
		t.Fatalf("Get across flush = %q, %v", got.Value, err)
	}
}

// TestApplyBatchAtForcedRange: a forced group commit takes the
// contiguous range ending at at, and at below the op count is refused.
func TestApplyBatchAtForcedRange(t *testing.T) {
	db := openMem(t, Options{})
	db.SetHistoryRetention(1)
	ops := []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Delete: true},
	}
	if last, _, err := db.Commit(ops, 3, nil); err != nil || last != 3 {
		t.Fatal(err)
	}
	evs, err := db.Replay(1, 3)
	if err != nil || len(evs) != 3 {
		t.Fatalf("replay = %d events, %v", len(evs), err)
	}
	if evs[0].Seq != 1 || string(evs[0].Key) != "a" || !evs[2].Delete {
		t.Fatalf("batch events = %+v", evs)
	}
	if _, _, err := db.Commit(ops, 2, nil); err == nil {
		t.Fatal("underflowing batch position accepted")
	}
}

// TestWriteBatchSeqContiguous: an engine-assigned group commit returns
// the sequence of its last op.
func TestWriteBatchSeqContiguous(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("warm"), []byte("x"), 0)
	last, _, err := db.Commit([]BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	}, 0, nil)
	if err != nil || last != 3 {
		t.Fatalf("batch last seq = %d, %v; want 3", last, err)
	}
}

func TestAlignSeqInvalidatesHistory(t *testing.T) {
	db := openMem(t, Options{})
	db.SetHistoryRetention(1)
	fill(t, db, 5, "k")
	db.AlignSeq(100)
	if _, err := db.Replay(1, 5); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatal("history survived AlignSeq")
	}
	lo, hi := db.HistoryBounds()
	if lo != 101 || hi != 100 {
		t.Fatalf("bounds after align = [%d, %d]", lo, hi)
	}
	if seq, err := put(db, "next", "v", 0); err != nil || seq != 101 {
		t.Fatalf("seq after align = %d, %v", seq, err)
	}
}

func TestCommitNotify(t *testing.T) {
	db := openMem(t, Options{})
	var got []uint64
	db.SetCommitNotify(func(seq uint64) { got = append(got, seq) })
	db.Put([]byte("a"), []byte("1"), 0)
	db.Commit([]BatchOp{{Key: []byte("b"), Value: []byte("2")}, {Key: []byte("c"), Value: []byte("3")}}, 0, nil)
	put(db, "d", "4", 9)
	want := []uint64{1, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("notifications = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notifications = %v, want %v", got, want)
		}
	}
	db.SetCommitNotify(nil)
	db.Put([]byte("e"), []byte("5"), 0)
	if len(got) != 3 {
		t.Fatal("uninstalled hook still fired")
	}
}

func TestReplayNeverSilentGap(t *testing.T) {
	fs := NewMemFS()
	db := openMem(t, Options{FS: fs, MemtableBytes: 1 << 20, DisableAutoCompact: true})
	db.SetHistoryRetention(1)
	fill(t, db, 20, "a")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, 20, "b")

	// Simulate an operator deleting a retained segment out from under
	// the log: Replay must fail loudly, not skip the hole.
	db.mu.Lock()
	sealed := len(db.segs) > 0
	if sealed {
		db.segs[0].name = "missing.wal"
	}
	db.mu.Unlock()
	if !sealed {
		t.Fatal("no sealed segment to corrupt")
	}

	if _, err := db.Replay(1, 40); err == nil {
		t.Fatal("Replay over a missing segment returned no error")
	}
}
