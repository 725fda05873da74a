package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
)

// collectPages drives ScanRange to exhaustion with the given page
// limit, returning all entries and the number of pages fetched.
func collectPages(t *testing.T, db *DB, limit int) ([]ScanEntry, int) {
	t.Helper()
	var out []ScanEntry
	var start []byte
	pages := 0
	for {
		page, err := db.ScanRange(start, limit, false)
		if err != nil {
			t.Fatalf("ScanRange: %v", err)
		}
		pages++
		out = append(out, page.Entries...)
		if page.NextKey == nil {
			return out, pages
		}
		start = page.NextKey
	}
}

func TestScanRangePaginatesAllLayers(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	const n = 20
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)), 0)
		if i%7 == 6 {
			db.Flush() // spread keys across several SSTables + memtable
		}
	}
	// Overwrite one key in a newer layer; the scan must return the new
	// value exactly once.
	db.Put([]byte("k03"), []byte("v03-new"), 0)

	entries, pages := collectPages(t, db, 6)
	if len(entries) != n {
		t.Fatalf("entries = %d, want %d", len(entries), n)
	}
	if pages < 4 {
		t.Fatalf("pages = %d, want >= 4 with limit 6", pages)
	}
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			t.Fatalf("out of order: %q then %q", entries[i-1].Key, entries[i].Key)
		}
	}
	for _, e := range entries {
		want := "v" + string(e.Key[1:])
		if string(e.Key) == "k03" {
			want = "v03-new"
		}
		if string(e.Value) != want {
			t.Fatalf("entry %q = %q, want %q", e.Key, e.Value, want)
		}
	}
}

func TestScanRangeBounds(t *testing.T) {
	db := openMem(t, Options{})
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		db.Put([]byte(k), []byte("v"), 0)
	}
	// start is inclusive; a page that runs out of keys has no NextKey.
	page, err := db.ScanRange([]byte("c"), 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 3 || string(page.Entries[0].Key) != "c" || string(page.Entries[2].Key) != "e" {
		t.Fatalf("entries = %v", page.Entries)
	}
	if page.NextKey != nil {
		t.Fatalf("NextKey = %q, want nil (keyspace exhausted)", page.NextKey)
	}
	// Entries carry their commit sequence: c was the third write.
	if e := page.Entries[0]; e.Seq != 3 || e.ExpireAt != 0 {
		t.Fatalf("entry c: Seq %d, ExpireAt %d; want 3, 0", e.Seq, e.ExpireAt)
	}
	// Limit reached: NextKey must point at the first unread key.
	page, err = db.ScanRange([]byte("b"), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || string(page.NextKey) != "c" {
		t.Fatalf("entries = %d, NextKey = %q", len(page.Entries), page.NextKey)
	}
}

func TestScanRangeSkipsTombstonesAndExpiredLikeGet(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim, DisableAutoCompact: true})
	db.Put([]byte("live"), []byte("v"), 0)
	db.Put([]byte("ttl"), []byte("v"), time.Minute)
	db.Put([]byte("dead"), []byte("v"), 0)
	db.Flush() // tombstone below shadows from a newer layer
	del(db, []byte("dead"))
	sim.Advance(time.Hour)

	page, err := db.ScanRange(nil, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 1 || string(page.Entries[0].Key) != "live" {
		t.Fatalf("entries = %v, want only 'live'", page.Entries)
	}
	// The skipped records still count as examined work.
	if page.Examined != 3 {
		t.Fatalf("Examined = %d, want 3", page.Examined)
	}
	// Cross-check against Get on every key the scan decided about.
	for _, k := range []string{"live", "ttl", "dead"} {
		_, err := db.Get([]byte(k))
		scanHas := false
		for _, e := range page.Entries {
			if string(e.Key) == k {
				scanHas = true
			}
		}
		if (err == nil) != scanHas {
			t.Fatalf("Get(%q) err=%v but scan presence=%v", k, err, scanHas)
		}
	}
}

func TestScanRangeExamineCapReturnsUsableCursor(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	// A desert of tombstones followed by one live key: a bounded page
	// must not walk the whole desert in one call.
	for i := 0; i < 3*scanExamineFactor; i++ {
		k := []byte(fmt.Sprintf("t%04d", i))
		db.Put(k, []byte("v"), 0)
		del(db, k)
	}
	db.Put([]byte("zz-live"), []byte("v"), 0)

	var start []byte
	pages := 0
	var found []ScanEntry
	for {
		page, err := db.ScanRange(start, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if page.Examined > 1*scanExamineFactor {
			t.Fatalf("page examined %d > cap %d", page.Examined, scanExamineFactor)
		}
		found = append(found, page.Entries...)
		if page.NextKey == nil {
			break
		}
		start = page.NextKey
	}
	if len(found) != 1 || string(found[0].Key) != "zz-live" {
		t.Fatalf("found = %v", found)
	}
	if pages < 3 {
		t.Fatalf("pages = %d, want >= 3 (examine cap slices the tombstone desert)", pages)
	}
}

func TestScanRangeBillableBytes(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("ab"), []byte("1234"), 0)
	db.Put([]byte("cd"), []byte("56"), 0)
	page, err := db.ScanRange(nil, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 + 4 + 2 + 2); page.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", page.Bytes, want)
	}
	// The value-free variant transfers no values but bills the same:
	// the engine read the records either way.
	kpage, err := db.ScanRange(nil, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(kpage.Entries) != 2 || kpage.Entries[0].Value != nil || kpage.Entries[1].Value != nil {
		t.Fatalf("keysOnly entries = %v, want value-free", kpage.Entries)
	}
	if kpage.Bytes != page.Bytes {
		t.Fatalf("keysOnly Bytes = %d, want %d", kpage.Bytes, page.Bytes)
	}
}

// failingSource yields n keys, then fails with a read error instead of
// exhausting — the shape of a tableIterator whose file read failed.
type failingSource struct {
	n    int
	pos  int
	e    error
	data []byte
}

func (f *failingSource) seek([]byte) bool { f.pos = 1; return f.pos <= f.n }
func (f *failingSource) Next() bool       { f.pos++; return f.pos <= f.n }
func (f *failingSource) Key() []byte      { return []byte(fmt.Sprintf("k%02d", f.pos)) }
func (f *failingSource) Rec() []byte      { return f.data }
func (f *failingSource) Err() error {
	if f.pos > f.n {
		return f.e
	}
	return nil
}

// TestMergedScannerSurfacesSourceErrors: a source that fails mid-scan
// must error the merge, not silently truncate it — otherwise a failed
// SSTable read would make SCAN/KEYS/DBSIZE report "complete" results
// missing every remaining key in that table.
func TestMergedScannerSurfacesSourceErrors(t *testing.T) {
	readErr := errors.New("lavastore: simulated read failure")
	src := &failingSource{n: 2, e: readErr, data: encodeRecord(record{Kind: kindSet, Value: []byte("v"), Seq: 1})}
	ms := newMergedScanner([]scanSource{src}, nil, nil)
	seen := 0
	for {
		_, _, ok := ms.next()
		if !ok {
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("yielded %d keys before failure, want 2", seen)
	}
	if err := ms.checkErr(); !errors.Is(err, readErr) {
		t.Fatalf("checkErr = %v, want the source's read error", err)
	}
}

func TestScanRangeResumeInterleavedWithWrites(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), 0)
	}
	page, err := db.ScanRange(nil, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range page.Entries {
		seen[string(e.Key)] = true
	}
	// Mutations behind and ahead of the cursor, plus a flush so the
	// resume crosses a layer boundary.
	db.Put([]byte("k00"), []byte("rewritten"), 0) // behind: must not reappear
	del(db, []byte("k05"))                        // ahead: must disappear
	db.Put([]byte("k99"), []byte("new"), 0)       // ahead: must appear
	db.Flush()

	start := page.NextKey
	for start != nil {
		page, err = db.ScanRange(start, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range page.Entries {
			if seen[string(e.Key)] {
				t.Fatalf("key %q returned twice", e.Key)
			}
			seen[string(e.Key)] = true
		}
		start = page.NextKey
	}
	if seen["k05"] {
		t.Fatal("deleted-ahead key k05 still returned")
	}
	if !seen["k99"] {
		t.Fatal("inserted-ahead key k99 not returned")
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		if i != 5 && !seen[k] {
			t.Fatalf("stable key %q missing from traversal", k)
		}
	}
}
