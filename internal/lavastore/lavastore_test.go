package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"abase/internal/clock"
)

func openMem(t *testing.T, opt Options) *DB {
	t.Helper()
	if opt.FS == nil {
		opt.FS = NewMemFS()
	}
	db, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// del writes a tombstone for key.
func del(db *DB, key []byte) error {
	_, _, err := db.Commit([]BatchOp{{Key: key, Delete: true}}, 0, nil)
	return err
}

// put commits one put at sequence at (0 = the engine's next).
func put(db *DB, key, value string, at uint64) (uint64, error) {
	last, _, err := db.Commit([]BatchOp{{Key: []byte(key), Value: []byte(value)}}, at, nil)
	return last, err
}

// liveKeys counts the records a full Scan visits.
func liveKeys(db *DB) (int, error) {
	n := 0
	err := db.Scan(func(ScanEntry) bool { n++; return true })
	return n, err
}

func TestPutGetDelete(t *testing.T) {
	db := openMem(t, Options{})
	if err := db.Put([]byte("k1"), []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k1"))
	if err != nil || string(got.Value) != "v1" {
		t.Fatalf("Get = %q, %v", got.Value, err)
	}
	if got.IOReads != 0 {
		t.Fatalf("memtable hit charged %d IO reads", got.IOReads)
	}
	if err := del(db, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	db := openMem(t, Options{})
	if _, err := db.Get([]byte("nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("k"), []byte("old"), 0)
	db.Put([]byte("k"), []byte("new"), 0)
	got, err := db.Get([]byte("k"))
	if err != nil || string(got.Value) != "new" {
		t.Fatalf("Get = %q, %v", got.Value, err)
	}
}

func TestFlushAndReadFromTable(t *testing.T) {
	db := openMem(t, Options{})
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key%03d", i))
		db.Put(k, bytes.Repeat([]byte{byte(i)}, 10), 0)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tables != 1 || st.MemtableKeys != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	got, err := db.Get([]byte("key042"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, bytes.Repeat([]byte{42}, 10)) {
		t.Fatalf("value = %v", got.Value)
	}
	if got.IOReads < 1 {
		t.Fatalf("table read charged %d IO reads, want >=1", got.IOReads)
	}
}

func TestBloomSkipsAbsentKeys(t *testing.T) {
	db := openMem(t, Options{})
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"), 0)
	}
	db.Flush()
	misses, ioTotal := 0, 0
	for i := 0; i < 500; i++ {
		res, err := db.Get([]byte(fmt.Sprintf("absent%04d", i)))
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("expected not found, got %v", err)
		}
		misses++
		ioTotal += res.IOReads
	}
	// Bloom should reject nearly all absent keys without IO.
	if float64(ioTotal) > 0.1*float64(misses) {
		t.Fatalf("bloom ineffective: %d IO reads for %d misses", ioTotal, misses)
	}
}

func TestNewerTableShadowsOlder(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	db.Put([]byte("k"), []byte("v1"), 0)
	db.Flush()
	db.Put([]byte("k"), []byte("v2"), 0)
	db.Flush()
	if db.Stats().Tables != 2 {
		t.Fatalf("tables = %d", db.Stats().Tables)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got.Value) != "v2" {
		t.Fatalf("Get = %q, %v", got.Value, err)
	}
}

func TestDeleteAcrossFlush(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	db.Put([]byte("k"), []byte("v"), 0)
	db.Flush()
	del(db, []byte("k"))
	db.Flush()
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone not honored: %v", err)
	}
}

func TestCompactMergesAndDropsTombstones(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"), 0)
	}
	db.Flush()
	for i := 0; i < 25; i++ {
		del(db, []byte(fmt.Sprintf("k%02d", i)))
	}
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Tables != 1 {
		t.Fatalf("tables after compact = %d", st.Tables)
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		_, err := db.Get(k)
		if i < 25 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %s resurrected: %v", k, err)
		}
		if i >= 25 && err != nil {
			t.Fatalf("live key %s lost: %v", k, err)
		}
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	db := openMem(t, Options{MaxTables: 3})
	for round := 0; round < 6; round++ {
		db.Put([]byte(fmt.Sprintf("k%d", round)), []byte("v"), 0)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().Tables; got > 4 {
		t.Fatalf("auto compaction did not bound tables: %d", got)
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
}

func TestTTLExpiry(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	db.Put([]byte("k"), []byte("v"), time.Hour)
	if _, err := db.Get([]byte("k")); err != nil {
		t.Fatalf("fresh TTL key missing: %v", err)
	}
	sim.Advance(2 * time.Hour)
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired key returned: %v", err)
	}
}

func TestTTLDroppedAtCompaction(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim, DisableAutoCompact: true})
	db.Put([]byte("short"), []byte("v"), time.Minute)
	db.Put([]byte("keep"), []byte("v"), 0)
	db.Flush()
	db.Put([]byte("more"), []byte("v"), 0)
	db.Flush()
	sim.Advance(time.Hour)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ExpiredDropped == 0 {
		t.Fatal("compaction dropped no expired records")
	}
	if _, err := db.Get([]byte("keep")); err != nil {
		t.Fatalf("live key lost: %v", err)
	}
}

func TestMemtableFlushThreshold(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 1024})
	big := bytes.Repeat([]byte("x"), 300)
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), big, 0)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("memtable threshold never triggered a flush")
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("key k%d lost across flush: %v", i, err)
		}
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	fs := NewMemFS()
	db, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("a"), []byte("1"), 0)
	db.Put([]byte("b"), []byte("2"), 0)
	del(db, []byte("a"))
	// Simulate crash: do NOT close (no flush), just reopen on same FS.
	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key a after recovery: %v", err)
	}
	got, err := db2.Get([]byte("b"))
	if err != nil || string(got.Value) != "2" {
		t.Fatalf("b after recovery = %q, %v", got.Value, err)
	}
}

func TestRecoveryWithTables(t *testing.T) {
	fs := NewMemFS()
	db, _ := Open(Options{FS: fs, Dir: "d", DisableAutoCompact: true})
	db.Put([]byte("old"), []byte("table"), 0)
	db.Flush()
	db.Put([]byte("new"), []byte("wal"), 0)
	// Crash (no close), reopen.
	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, k := range []string{"old", "new"} {
		if _, err := db2.Get([]byte(k)); err != nil {
			t.Fatalf("key %s lost: %v", k, err)
		}
	}
}

func TestRecoverySeqContinues(t *testing.T) {
	fs := NewMemFS()
	db, _ := Open(Options{FS: fs, Dir: "d"})
	db.Put([]byte("k"), []byte("v1"), 0)
	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// New write must shadow the recovered one.
	db2.Put([]byte("k"), []byte("v2"), 0)
	db2.Flush()
	got, err := db2.Get([]byte("k"))
	if err != nil || string(got.Value) != "v2" {
		t.Fatalf("Get = %q, %v", got.Value, err)
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	fs := NewMemFS()
	db, _ := Open(Options{FS: fs, Dir: "d"})
	db.Put([]byte("good"), []byte("v"), 0)
	// Corrupt the WAL tail by appending garbage.
	names, _ := fs.List("d")
	for _, n := range names {
		if len(n) > 4 && n[len(n)-4:] == ".wal" {
			fs.files["d/"+n].write([]byte{0xDE, 0xAD, 0xBE})
		}
	}
	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatalf("recovery failed on torn tail: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("good")); err != nil {
		t.Fatalf("good record lost: %v", err)
	}
}

func TestClosedErrors(t *testing.T) {
	db := openMem(t, Options{})
	db.Close()
	if err := db.Put([]byte("k"), []byte("v"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{FS: OSFS{}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Put([]byte("k"), []byte("disk"), 0)
	db.Flush()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{FS: OSFS{}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Get([]byte("k"))
	if err != nil || string(got.Value) != "disk" {
		t.Fatalf("Get = %q, %v", got.Value, err)
	}
}

func TestPropertyMatchesMapAcrossFlushes(t *testing.T) {
	type op struct {
		Key    uint8
		Del    bool
		Val    uint16
		FlushQ bool
	}
	f := func(ops []op) bool {
		db := openMemQuick()
		defer db.Close()
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.Key)
			if o.Del {
				del(db, []byte(k))
				delete(ref, k)
			} else {
				v := fmt.Sprintf("v%05d", o.Val)
				db.Put([]byte(k), []byte(v), 0)
				ref[k] = v
			}
			if o.FlushQ {
				db.Flush()
			}
		}
		for k, v := range ref {
			got, err := db.Get([]byte(k))
			if err != nil || string(got.Value) != v {
				return false
			}
		}
		// Check a few absent keys.
		for i := 0; i < 5; i++ {
			k := fmt.Sprintf("k%03d", 200+i)
			if _, ok := ref[k]; ok {
				continue
			}
			if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func openMemQuick() *DB {
	db, err := Open(Options{FS: NewMemFS(), MaxTables: 4})
	if err != nil {
		panic(err)
	}
	return db
}

func TestRecordRoundTrip(t *testing.T) {
	f := func(seq uint64, exp int64, val []byte) bool {
		if exp < 0 {
			exp = -exp
		}
		r := record{Seq: seq, Kind: kindSet, ExpireAt: exp, Value: val}
		got, err := decodeRecord(encodeRecord(r))
		if err != nil {
			return false
		}
		return got.Seq == seq && got.ExpireAt == exp && bytes.Equal(got.Value, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	for _, data := range [][]byte{nil, {0x01}, {0x01, 0xFF}} {
		if _, err := decodeRecord(data); err == nil {
			t.Fatalf("decode(%v) succeeded", data)
		}
	}
}

func TestBloomFilterBasics(t *testing.T) {
	bf := newBloomFilter(100)
	for i := 0; i < 100; i++ {
		bf.Add([]byte(fmt.Sprintf("k%d", i)))
	}
	for i := 0; i < 100; i++ {
		if !bf.MayContain([]byte(fmt.Sprintf("k%d", i))) {
			t.Fatalf("false negative for k%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if bf.MayContain([]byte(fmt.Sprintf("absent%d", i))) {
			fp++
		}
	}
	if fp > 50 { // ~1% expected; allow 5%
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	bf := newBloomFilter(10)
	bf.Add([]byte("x"))
	got := unmarshalBloom(bf.Marshal())
	if !got.MayContain([]byte("x")) {
		t.Fatal("marshaled bloom lost key")
	}
}

func TestMemFSRename(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("a")
	f.Write([]byte("data"))
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a"); err == nil {
		t.Fatal("old name still present")
	}
	g, err := fs.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	g.ReadAt(buf, 0)
	if string(buf) != "data" {
		t.Fatalf("data = %q", buf)
	}
}

func TestMemFSListIsolatesDirs(t *testing.T) {
	fs := NewMemFS()
	fs.Create("d1/a")
	fs.Create("d2/b")
	fs.Create("d1/sub/c")
	names, _ := fs.List("d1")
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("List(d1) = %v", names)
	}
}

// benchKeys returns n keys formatted by format from 0 up, in one
// allocation, so a benchmark builds its keys before its timer starts.
func benchKeys(n int, format string) [][]byte {
	size := len(fmt.Sprintf(format, 0))
	buf := make([]byte, 0, n*size)
	keys := make([][]byte, n)
	for i := range keys {
		buf = fmt.Appendf(buf, format, i)
		keys[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return keys
}

// benchDB opens a MemFS engine with opts for a benchmark and puts
// value under each of keys.
func benchDB(b *testing.B, opts Options, keys [][]byte, value []byte) *DB {
	b.Helper()
	opts.FS = NewMemFS()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	for _, k := range keys {
		if err := db.Put(k, value, 0); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkPutSmall times a fresh 100-byte insert; the keys are built
// before the timer starts.
func BenchmarkPutSmall(b *testing.B) {
	db := benchDB(b, Options{}, nil, nil)
	keys := benchKeys(b.N, "key%09d")
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(keys[i], val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetMemtable times a point read of one of 10,000 keys held
// in the memtable.
func BenchmarkGetMemtable(b *testing.B) {
	keys := benchKeys(10000, "key%06d")
	benchGet(b, benchDB(b, Options{MemtableBytes: 1 << 30}, keys, []byte("value")), keys)
}

// BenchmarkGetSSTable times a point read of one of 10,000 keys flushed
// to a table.
func BenchmarkGetSSTable(b *testing.B) {
	keys := benchKeys(10000, "key%06d")
	db := benchDB(b, Options{}, keys, []byte("value"))
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	benchGet(b, db, keys)
}

// benchGet times Get over keys in turn, each of which db holds.
func benchGet(b *testing.B, db *DB, keys [][]byte) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
