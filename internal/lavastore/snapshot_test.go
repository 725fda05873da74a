package lavastore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadsRaceCompactionOnOSFS runs point reads and scans against a
// flush loop that compacts every other flush, on real files: a table
// the compaction swaps out must stay open until the last reader that
// snapshotted it is done.
func TestReadsRaceCompactionOnOSFS(t *testing.T) {
	readsRaceCompaction(t, OSFS{}, t.TempDir())
}

// TestReadsRaceCompactionOnMemFS is the same race on MemFS, whose
// handles refuse a read after Close as an *os.File does, and whose
// compacted files hand their chunks on once the last handle closes.
func TestReadsRaceCompactionOnMemFS(t *testing.T) {
	readsRaceCompaction(t, NewMemFS(), "d")
}

func readsRaceCompaction(t *testing.T, fs FS, dir string) {
	db, err := Open(Options{FS: fs, Dir: dir, MaxTables: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 32
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i%keys)) }
	for i := 0; i < keys; i++ {
		if _, err := put(db, string(key(i)), "v0", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var failed atomic.Int64
	var first atomic.Value
	fail := func(err error) {
		if failed.Add(1) == 1 {
			first.Store(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				if _, err := db.Get(key(i)); err != nil {
					fail(fmt.Errorf("Get %s: %w", key(i), err))
				}
				if i%16 == 0 {
					if n, err := liveKeys(db); err != nil || n != keys {
						fail(fmt.Errorf("Scan: %d keys, err %v", n, err))
					}
				}
			}
		}(r)
	}
	for i := 0; i < 120; i++ {
		if _, err := put(db, string(key(i)), fmt.Sprintf("v%d", i+1), 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d reads failed racing compaction; first: %v", n, first.Load())
	}
	if c := db.Stats().Compactions; c == 0 {
		t.Fatal("no compaction ran")
	}
}

// TestHeldViewKeepsItsTablesOpen: a reader holding a view keeps the
// tables a compaction merged away open while newer views come and go,
// and its release closes them.
func TestHeldViewKeepsItsTablesOpen(t *testing.T) {
	db, err := Open(Options{FS: OSFS{}, Dir: t.TempDir(), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2; i++ {
		if _, err := put(db, fmt.Sprintf("k%d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.RLock()
	held := db.acquireLocked()
	db.mu.RUnlock()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := put(db, "k2", "v", 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // a newer view, with a memtable frozen and flushed
		t.Fatal(err)
	}
	if held.next == nil || held.next.next == nil {
		t.Fatal("held view's count is not linked to its successors'")
	}
	for i, tab := range held.tables {
		if _, _, _, err := tab.Get([]byte(fmt.Sprintf("k%d", 1-i)), nil); err != nil {
			t.Fatalf("a merged-away table closed under its reader: %v", err)
		}
	}
	held.release()
	for i, tab := range held.tables {
		if _, _, _, err := tab.Get([]byte(fmt.Sprintf("k%d", 1-i)), nil); err == nil {
			t.Fatal("a merged-away table is still open after its last reader released it")
		}
	}
	if n, err := liveKeys(db); err != nil || n != 3 {
		t.Fatalf("after the release: %d keys, err %v", n, err)
	}
}
