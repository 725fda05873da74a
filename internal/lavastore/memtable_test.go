package lavastore

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"abase/internal/skiplist"
)

// hotBatches commits n entries shaped like the hot workloads' (12-byte
// keys, 128-byte values) in batches of 64.
func hotBatches(t *testing.T, db *DB, n int) {
	t.Helper()
	value := bytes.Repeat([]byte("v"), 128)
	ops := make([]BatchOp, 0, 64)
	for i := 0; i < n; i++ {
		ops = append(ops, BatchOp{Key: []byte(fmt.Sprintf("key-%08d", i)), Value: value})
		if len(ops) == cap(ops) || i == n-1 {
			if _, _, err := db.Commit(ops, 0, nil); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
}

// TestMemtableFootprint: the heap a memtable takes is what it holds,
// plus little. Keys, records and skiplist nodes live in pages, so 16,384
// hot-shaped entries cost at most 1.4 times their key and record bytes
// (a pointer node per entry cost 2.57 times).
func TestMemtableFootprint(t *testing.T) {
	fs := NewMemFS()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Open(Options{FS: fs, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16384
	hotBatches(t, db, n)
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := db.Stats()
	if st.MemtableKeys != n || st.Flushes != 0 {
		t.Fatalf("memtable holds %d keys after %d flushes, want %d and 0", st.MemtableKeys, st.Flushes, n)
	}
	var wal int64
	names, _ := fs.List(db.opt.Dir)
	for _, name := range names {
		if strings.HasSuffix(name, ".wal") {
			f, _ := fs.Open(db.filePath(name))
			size, _ := f.Size()
			f.Close()
			wal += size
		}
	}
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc) - wal
	ratio := float64(heap) / float64(st.MemtableBytes)
	t.Logf("%d entries: %d B of heap past the WAL for %d B of keys and records (%.2fx, %.0f B per entry); pages %d B",
		n, heap, st.MemtableBytes, ratio, float64(heap)/n, st.MemtablePageBytes)
	if ratio > 1.4 {
		t.Fatalf("memtable takes %.2fx its key and record bytes, want <= 1.4x", ratio)
	}
	runtime.KeepAlive(db)
}

// TestMemtablePageBytes: Stats counts the memtables' pages, mem plus
// imm. After n fresh puts they hold at least the live bytes, and at most
// those plus the nodes (under 16 bytes each at these heights), a length
// prefix per key and record, and one partly filled page of each kind.
func TestMemtablePageBytes(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 1 << 30})
	if st := db.Stats(); st.MemtablePageBytes != 0 {
		t.Fatalf("empty memtable holds %d page bytes, want 0", st.MemtablePageBytes)
	}
	const n = 4096
	hotBatches(t, db, n)
	st := db.Stats()
	const slack = 3 * 64 << 10 // a key page, a record page and a node page
	if lo, hi := st.MemtableBytes, st.MemtableBytes+n*(16+2+2)+slack; st.MemtablePageBytes < lo || st.MemtablePageBytes > hi {
		t.Fatalf("pages hold %d B for %d live B, want within [%d, %d]", st.MemtablePageBytes, st.MemtableBytes, lo, hi)
	}

	// A record larger than a page gets one of its own, counted in full.
	big := bytes.Repeat([]byte("b"), 200<<10)
	if err := db.Put([]byte("big"), big, 0); err != nil {
		t.Fatal(err)
	}
	grown := db.Stats().MemtablePageBytes - st.MemtablePageBytes
	if grown < int64(len(big)) || grown > int64(len(big))+64 {
		t.Fatalf("a %d B record added %d page bytes", len(big), grown)
	}

	// A frozen memtable awaiting flush still counts: Stats reads mem and
	// imm alike. Freeze by hand, as doFlush does before it writes.
	db.mu.Lock()
	frozen := db.v.mem.PageBytes()
	db.installLocked(skiplist.New(1), append(db.v.imm, db.v.mem), db.v.tables)
	db.mu.Unlock()
	if got := db.Stats().MemtablePageBytes; got != frozen {
		t.Fatalf("with the memtable frozen, pages hold %d B, want its %d B", got, frozen)
	}
}

// TestOpenRefusesNegativeOptions: a negative size or count is an error
// naming the field, not a silent default; zero keeps the default.
func TestOpenRefusesNegativeOptions(t *testing.T) {
	for _, tc := range []struct {
		opt   Options
		field string
	}{
		{Options{MemtableBytes: -1}, "MemtableBytes"},
		{Options{MaxTables: -1}, "MaxTables"},
		{Options{MemtableBytes: -1 << 20, MaxTables: 4}, "MemtableBytes"},
		{Options{}, ""},
	} {
		db, err := Open(tc.opt)
		if tc.field == "" {
			if err != nil {
				t.Fatalf("Open(%+v) = %v, want the defaults", tc.opt, err)
			}
			if db.opt.MemtableBytes != 4<<20 || db.opt.MaxTables != 8 {
				t.Fatalf("zero options became %d bytes, %d tables", db.opt.MemtableBytes, db.opt.MaxTables)
			}
			db.Close()
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("Open(%+v) = %v, want an error naming %s", tc.opt, err, tc.field)
		}
	}
}

// TestCommitTooLargeRefused: a commit whose keys and values could run a
// memtable out of page addresses is an error, before anything is
// written; one just under the line commits.
func TestCommitTooLargeRefused(t *testing.T) {
	db := openMem(t, Options{})
	value := make([]byte, 16<<10) // shared: the ops only claim their size
	ops := make([]BatchOp, 40000) // 625 MiB
	for i := range ops {
		ops[i] = BatchOp{Key: []byte("k"), Value: value}
	}
	if _, _, err := db.Commit(ops, 0, nil); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("Commit of 625 MiB = %v, want refused", err)
	}
	if st := db.Stats(); st.MemtableKeys != 0 || st.MemtablePageBytes != 0 {
		t.Fatalf("a refused commit left %d keys, %d page bytes", st.MemtableKeys, st.MemtablePageBytes)
	}
	if !skiplist.Fits(int64(len(ops)/4*len(value)), len(ops)/4) {
		t.Fatal("a 156 MiB commit does not fit an empty memtable")
	}
}
