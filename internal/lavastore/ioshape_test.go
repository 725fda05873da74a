package lavastore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// ioCounts is what one file was asked to do.
type ioCounts struct {
	writes, writeBytes int64
	reads, maxRead     int64
}

// shapeFS is an FS that counts, per file name, the calls the engine
// makes — their number and size, which are exact across runs, not the
// time they take.
type shapeFS struct {
	FS
	mu     sync.Mutex
	byName map[string]*ioCounts
}

type shapeFile struct {
	File
	fs *shapeFS
	c  *ioCounts
}

func newShapeFS() *shapeFS { return &shapeFS{FS: NewMemFS(), byName: map[string]*ioCounts{}} }

func (s *shapeFS) wrap(name string, f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byName[name] == nil {
		s.byName[name] = &ioCounts{}
	}
	return &shapeFile{File: f, fs: s, c: s.byName[name]}, nil
}

func (s *shapeFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	return s.wrap(name, f, err)
}

func (s *shapeFS) Open(name string) (File, error) {
	f, err := s.FS.Open(name)
	return s.wrap(name, f, err)
}

func (f *shapeFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.c.writes++
	f.c.writeBytes += int64(len(p))
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f *shapeFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.c.reads++
	f.c.maxRead = max(f.c.maxRead, int64(len(p)))
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// total sums the counters of every file whose name contains part and
// zeroes them, so each phase of a test reads only its own I/O.
func (s *shapeFS) total(part string) (sum ioCounts) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, c := range s.byName {
		if strings.Contains(name, part) {
			sum.writes += c.writes
			sum.writeBytes += c.writeBytes
			sum.reads += c.reads
			sum.maxRead = max(sum.maxRead, c.maxRead)
			*c = ioCounts{}
		}
	}
	return sum
}

// TestIOShape is the engine's I/O-granularity gate. With the default
// 4 MiB memtable and 1 KiB values it holds the number and size of the
// file operations behind a WAL append, a flush, a table-served Get, a
// short scan page and a full compaction — counts, identical on every
// run and every box.
func TestIOShape(t *testing.T) {
	const valueSize = 1 << 10
	fs := newShapeFS()
	db, err := Open(Options{FS: fs, Dir: "d", DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), valueSize)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	// Keys stride over the tables so all eight cover the same range.
	const tables, perTable = 8, 4200
	nextKey := func(n int) []byte { return key((n%perTable)*tables + n/perTable) }

	// WAL: one Write per Put, and exactly the framed record's bytes.
	fs.total(".wal")
	if err := db.Put(nextKey(0), val, 0); err != nil {
		t.Fatal(err)
	}
	rec := encodeRecord(record{Kind: kindSet, Value: val, Seq: 1})
	if got, want := fs.total(".wal"), int64(len(frameTwoCopies(nil, nextKey(0), rec))); got.writes != 1 || got.writeBytes != want {
		t.Errorf("one Put: %d WAL writes of %d bytes, want 1 of %d", got.writes, got.writeBytes, want)
	}

	// Flush: the memtable fills and is written one block at a time.
	puts := 1
	for ; db.Stats().Flushes == 0; puts++ {
		if err := db.Put(nextKey(puts), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	flush := fs.total(".sst")
	if maxWrites := st.TableBytes/ioBlockSize + 2; flush.writes > maxWrites || flush.writes > 70 || flush.writeBytes != st.TableBytes {
		t.Errorf("flush of %d entries: %d writes of %d bytes for a %d-byte table, want <= %d writes",
			puts, flush.writes, flush.writeBytes, st.TableBytes, min(maxWrites, 70))
	}

	// Point reads served by the table: one ReadAt of one index run.
	const gets = 500
	for i := 0; i < gets; i++ {
		res, err := db.Get(nextKey(i * (puts / gets)))
		if err != nil || res.IOReads != 1 || !bytes.Equal(res.Value, val) {
			t.Fatalf("Get %d: IOReads %d err %v", i, res.IOReads, err)
		}
	}
	entry := int64(len(rec) + len(key(0)) + 3)
	if got := fs.total(".sst"); got.reads != gets || got.maxRead > indexBytes+entry {
		t.Errorf("%d table-served Gets: %d ReadAts, largest %d bytes; want %d of <= %d",
			gets, got.reads, got.maxRead, gets, indexBytes+entry)
	}

	// A short page seeks, then reads ahead from one index run up: it
	// never pays for a whole block.
	if page, err := db.ScanRange(nextKey(puts/2), 4, true); err != nil || len(page.Entries) != 4 {
		t.Fatalf("ScanRange: %d entries, err %v", len(page.Entries), err)
	}
	if got := fs.total(".sst"); got.reads > 3 || got.maxRead > 4*indexBytes {
		t.Errorf("a 4-entry page: %d ReadAts, largest %d bytes; want <= 3 of <= %d", got.reads, got.maxRead, 4*indexBytes)
	}

	// Compaction: eight such tables are read ahead a block at a time.
	for ; db.Stats().Flushes < tables; puts++ {
		if err := db.Put(nextKey(puts), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	st = db.Stats()
	fs.total(".sst")
	merged := fmt.Sprintf("%06d.sst", db.nextFile)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	out := fs.total(merged)
	if size := db.Stats().TableBytes; db.Stats().Tables != 1 || out.writes > size/ioBlockSize+2 || out.writeBytes != size {
		t.Errorf("compaction output: %d tables, %d writes of %d bytes for a %d-byte table", db.Stats().Tables, out.writes, out.writeBytes, size)
	}
	in := fs.total(".sst")
	if maxReads := st.TableBytes/ioBlockSize + 2*tables; in.reads > maxReads || in.maxRead > ioBlockSize {
		t.Errorf("compaction of %d tables (%d bytes): %d ReadAts, largest %d bytes; want <= %d of <= %d",
			tables, st.TableBytes, in.reads, in.maxRead, maxReads, ioBlockSize)
	}
	t.Logf("flush %d writes / %d bytes; compaction %d reads / %d bytes in, %d writes out",
		flush.writes, flush.writeBytes, in.reads, st.TableBytes, out.writes)
	if n, err := liveKeys(db); err != nil || n != puts {
		t.Errorf("after compaction: %d keys, err %v; want %d", n, err, puts)
	}
}

// TestReadsRaceFlushAndCompaction: Get and ScanRange snapshot the
// table list by reference and read tables without the engine lock
// while the writer's inline flushes and compactions replace the list
// and delete the files under them. Every committed key must stay
// readable throughout (run under -race).
func TestReadsRaceFlushAndCompaction(t *testing.T) {
	db, err := Open(Options{FS: NewMemFS(), Dir: "d", MemtableBytes: 32 << 10, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 4000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 300+i%400) }
	var committed atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; committed.Load() < n; i += 7 {
				c := int(committed.Load())
				if c == 0 {
					continue
				}
				j := i % c
				if r == 0 {
					page, err := db.ScanRange(key(j), 8, false)
					if err != nil || len(page.Entries) == 0 || !bytes.Equal(page.Entries[0].Key, key(j)) || !bytes.Equal(page.Entries[0].Value, val(j)) {
						t.Errorf("ScanRange from committed key %d: %d entries, err %v", j, len(page.Entries), err)
						return
					}
					continue
				}
				if got, err := db.Get(key(j)); err != nil || !bytes.Equal(got.Value, val(j)) {
					t.Errorf("Get of committed key %d: %d bytes, err %v", j, len(got.Value), err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), val(i), 0); err != nil {
			t.Fatal(err)
		}
		committed.Store(int64(i + 1))
	}
	wg.Wait()
	if st := db.Stats(); st.Compactions == 0 || st.GetIOReads == 0 {
		t.Fatalf("nothing raced: %d compactions, %d table reads", st.Compactions, st.GetIOReads)
	}
}
