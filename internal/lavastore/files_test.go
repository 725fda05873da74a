package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"abase/internal/skiplist"
)

// chunkWatch is a MemFS that, after every write, counts the full-size
// chunks its live files and its free list hold together, keeping the
// most it has seen and the chunks files have taken in all.
type chunkWatch struct {
	*MemFS
	seen   map[*memFile]int // live files: full-size chunks at the last look
	peak   int
	handed int
}

func (w *chunkWatch) Create(name string) (File, error) {
	h, err := w.MemFS.Create(name)
	if err != nil {
		return nil, err
	}
	w.seen[memFileOf(h)] = 0
	return watchedFile{h, w}, nil
}

type watchedFile struct {
	File
	w *chunkWatch
}

func (f watchedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.w.look()
	return n, err
}

func (w *chunkWatch) look() {
	held := freeChunks(w.MemFS)
	for f, last := range w.seen {
		f.mu.RLock()
		n, dead := 0, f.dead
		for _, c := range f.chunks {
			if cap(c) == memChunkSize {
				n++
			}
		}
		f.mu.RUnlock()
		if dead {
			delete(w.seen, f)
			continue
		}
		held += n
		w.handed += n - last
		w.seen[f] = n
	}
	w.peak = max(w.peak, held)
}

// TestChunksAreRecycled runs a DB on MemFS through flushes and
// compactions that delete WAL segments and tables: a chunk is made
// only while the free list is empty, so the chunks made equal the most
// that files and the free list ever held at once, and files take more
// chunks than were ever made.
func TestChunksAreRecycled(t *testing.T) {
	w := &chunkWatch{MemFS: NewMemFS(), seen: map[*memFile]int{}}
	db := openMem(t, Options{FS: w, Dir: "d", MemtableBytes: 1 << 20, MaxTables: 2})
	val := bytes.Repeat([]byte("v"), 1000)
	for i := 0; i < 10000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%05d", i%3000)), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); s.Flushes < 5 || s.Compactions < 2 {
		t.Fatalf("%d flushes and %d compactions; the test wants several of each", s.Flushes, s.Compactions)
	}
	t.Logf("chunks: %d made, %d taken by files, at most %d held", w.made, w.handed, w.peak)
	if w.made != w.peak {
		t.Fatalf("%d chunks made, but files and the free list held at most %d at once", w.made, w.peak)
	}
	if w.handed <= w.made {
		t.Fatalf("files took %d chunks and %d were made: none was reused", w.handed, w.made)
	}
}

var errInjected = errors.New("injected table fault")

// faultyFS is a MemFS whose table files fail on demand — their writes,
// their reads, or every Open after the first failOpenAfter — and which
// counts the table handles left open.
type faultyFS struct {
	*MemFS
	failWrite, failRead bool
	failOpenAfter       int // 0: never
	opens, open         int
}

func (f *faultyFS) Create(name string) (File, error) { return f.wrap(name, f.MemFS.Create) }

func (f *faultyFS) Open(name string) (File, error) {
	if strings.HasSuffix(name, ".sst") {
		if f.opens++; f.failOpenAfter > 0 && f.opens > f.failOpenAfter {
			return nil, errInjected
		}
	}
	return f.wrap(name, f.MemFS.Open)
}

func (f *faultyFS) wrap(name string, open func(string) (File, error)) (File, error) {
	h, err := open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return h, err
	}
	f.open++
	return faultyFile{h, f}, nil
}

// tables lists the table files in dir.
func (f *faultyFS) tables(t *testing.T, dir string) []string {
	t.Helper()
	names, err := f.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(names, func(n string) bool { return !strings.HasSuffix(n, ".sst") })
}

type faultyFile struct {
	File
	fs *faultyFS
}

func (h faultyFile) Write(p []byte) (int, error) {
	if h.fs.failWrite {
		return 0, errInjected
	}
	return h.File.Write(p)
}

func (h faultyFile) ReadAt(p []byte, off int64) (int, error) {
	if h.fs.failRead {
		return 0, errInjected
	}
	return h.File.ReadAt(p, off)
}

func (h faultyFile) Close() error {
	err := h.File.Close()
	if err == nil {
		h.fs.open--
	}
	return err
}

// TestFailedTableBuildLeavesNothing: a flush or a compaction whose
// table cannot be written, or whose reopened table cannot be read,
// fails, and leaves no table handle open and no partial table behind.
// Once the fault clears, the engine flushes, compacts and serves every
// key.
func TestFailedTableBuildLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name      string
		op        func(db *DB) error
		failWrite bool
	}{
		{"Flush, table write fails", (*DB).Flush, true},
		{"Flush, reopened table unreadable", (*DB).Flush, false},
		{"Compact, table write fails", (*DB).Compact, true},
		{"Compact, tables unreadable", (*DB).Compact, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &faultyFS{MemFS: NewMemFS()}
			db := openMem(t, Options{FS: fs, Dir: "d", DisableAutoCompact: true})
			for i := 0; i < 3; i++ {
				if _, err := put(db, fmt.Sprintf("k%d", i), "v", 0); err != nil {
					t.Fatal(err)
				}
				if i < 2 {
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			tables, open := fs.tables(t, "d"), fs.open
			fs.failWrite, fs.failRead = tc.failWrite, !tc.failWrite
			if err := tc.op(db); !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want the injected fault", err)
			}
			fs.failWrite, fs.failRead = false, false
			if fs.open != open {
				t.Errorf("%d table handles open, want the %d tables'", fs.open, open)
			}
			if got := fs.tables(t, "d"); !slices.Equal(got, tables) {
				t.Errorf("tables %v after the failure, want %v", got, tables)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
					t.Fatalf("k%d: %v", i, err)
				}
			}
		})
	}
}

// TestFailedOpenClosesItsTables: an Open that cannot open one of its
// tables fails and leaves none of the others open.
func TestFailedOpenClosesItsTables(t *testing.T) {
	fs := &faultyFS{MemFS: NewMemFS()}
	db := openMem(t, Options{FS: fs, Dir: "d", DisableAutoCompact: true})
	for i := 0; i < 3; i++ {
		if _, err := put(db, fmt.Sprintf("k%d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fs.opens, fs.open, fs.failOpenAfter = 0, 0, 2
	if _, err := Open(Options{FS: fs, Dir: "d"}); !errors.Is(err, errInjected) {
		t.Fatalf("Open err = %v, want the injected fault", err)
	}
	if fs.open != 0 {
		t.Fatalf("%d table handles open after the failed Open", fs.open)
	}
}

// TestOpenKeepsTablesItCannotRead: a table whose reads fail during
// Open is not a table a crash tore. Open fails, closes what it opened
// and keeps the file, so an Open after the fault clears serves every
// key.
func TestOpenKeepsTablesItCannotRead(t *testing.T) {
	fs := &faultyFS{MemFS: NewMemFS()}
	db := openMem(t, Options{FS: fs, Dir: "d", DisableAutoCompact: true})
	for i := 0; i < 2; i++ {
		if _, err := put(db, fmt.Sprintf("k%d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tables := fs.tables(t, "d")
	fs.open, fs.failRead = 0, true
	if _, err := Open(Options{FS: fs, Dir: "d"}); !errors.Is(err, errInjected) {
		t.Fatalf("Open err = %v, want the injected fault", err)
	}
	fs.failRead = false
	if fs.open != 0 {
		t.Errorf("%d table handles open after the failed Open", fs.open)
	}
	if got := fs.tables(t, "d"); !slices.Equal(got, tables) {
		t.Fatalf("tables %v after the failed Open, want %v", got, tables)
	}
	db = openMem(t, Options{FS: fs, Dir: "d"})
	for i := 0; i < 2; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("k%d: %v", i, err)
		}
	}
}

// TestFailedFlushIsRetried: the next flush writes the memtable a failed
// flush froze, before the one it freezes itself, and seals its WAL
// segment, so neither the memtable nor any later segment is kept for
// good. The retried table is older than the next one: across a reopen
// the newest value of a key written on both sides of the failure wins.
func TestFailedFlushIsRetried(t *testing.T) {
	fs := &faultyFS{MemFS: NewMemFS()}
	db := openMem(t, Options{FS: fs, Dir: "d", DisableAutoCompact: true})
	if _, err := put(db, "k", "old", 0); err != nil {
		t.Fatal(err)
	}
	fs.failWrite = true
	if err := db.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	fs.failWrite = false
	if _, err := put(db, "k", "new", 0); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	for i := 0; i < 4; i++ {
		if _, err := put(db, fmt.Sprintf("f%d", i), "v", 0); err != nil {
			t.Fatal(err)
		}
		if i == 3 { // once in its table, the flushed memtable is garbage
			db.mu.RLock()
			runtime.SetFinalizer(db.v.mem, func(*skiplist.List) { close(released) })
			db.mu.RUnlock()
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.RLock()
	imm, segs := len(db.v.imm), len(db.segs)
	db.mu.RUnlock()
	if imm != 0 || segs != 0 {
		t.Fatalf("%d frozen memtables and %d sealed WAL segments kept, want none", imm, segs)
	}
	waitReleased(t, released)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openMem(t, Options{FS: fs, Dir: "d"})
	if r, err := db.Get([]byte("k")); err != nil || string(r.Value) != "new" {
		t.Fatalf("k after reopen = %q, %v; want \"new\"", r.Value, err)
	}
}

// waitReleased runs up to 20 collections, yielding after each so the
// finalizer goroutine runs, until released is closed.
func waitReleased(t *testing.T, released <-chan struct{}) {
	t.Helper()
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-released:
			return
		default:
		}
	}
	t.Fatal("a flushed memtable is still reachable")
}
