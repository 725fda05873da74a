package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/skiplist"
)

// parkingClock is the real clock, except that the first Now after armed
// is set parks its caller until resume is closed. A Get calls Now after it has
// found a record and before it copies the value out.
type parkingClock struct {
	clock.Real
	armed          atomic.Bool
	parked, resume chan struct{}
}

func (c *parkingClock) Now() time.Time {
	if c.armed.CompareAndSwap(true, false) {
		close(c.parked)
		<-c.resume
	}
	return c.Real.Now()
}

// retireAndRefill freezes, flushes and so drops db's memtable, checks
// that no page came back to the free list while a reader holds it, and
// then fills a new memtable with more pages than the dropped one had,
// which would overwrite any page of it handed out too early.
func retireAndRefill(t *testing.T, db *DB) {
	t.Helper()
	_, free := skiplist.PoolPages()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, after := skiplist.PoolPages(); after != free {
		t.Errorf("the flush gave %d pages back while a reader held them", after-free)
	}
	filler := bytes.Repeat([]byte{'x'}, 1000)
	for i := 0; i < 300; i++ {
		if err := db.Put([]byte(fmt.Sprintf("fill%03d", i)), filler, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParkedReaderKeepsItsMemtable: a reader parked between taking its
// view and copying a memtable value out returns the value intact, while
// the memtable is frozen, flushed and dropped, and a new memtable fills
// the free list's pages. The Get parks in the clock; the Scan parks in
// its callback, whose entry is only valid during the call.
func TestParkedReaderKeepsItsMemtable(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 100)
	for _, tc := range []struct {
		name  string
		inNow bool // the read parks in the clock, not in its own code
		read  func(db *DB, clk *parkingClock) ([]byte, error)
	}{
		{"Get", true, func(db *DB, clk *parkingClock) ([]byte, error) {
			r, err := db.Get([]byte("k"))
			return r.Value, err
		}},
		{"Scan", false, func(db *DB, clk *parkingClock) ([]byte, error) {
			var got []byte
			err := db.Scan(func(e ScanEntry) bool {
				close(clk.parked)
				<-clk.resume
				got = bytes.Clone(e.Value)
				return false
			})
			return got, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &parkingClock{parked: make(chan struct{}), resume: make(chan struct{})}
			db := openMem(t, Options{Clock: clk, DisableAutoCompact: true})
			if err := db.Put([]byte("k"), want, 0); err != nil {
				t.Fatal(err)
			}
			clk.armed.Store(tc.inNow)
			type result struct {
				v   []byte
				err error
			}
			done := make(chan result)
			go func() {
				v, err := tc.read(db, clk)
				done <- result{v, err}
			}()
			<-clk.parked
			retireAndRefill(t, db)
			close(clk.resume)
			got := <-done
			if got.err != nil || !bytes.Equal(got.v, want) {
				t.Fatalf("parked %s = %.20q…, %v; want the value it found", tc.name, got.v, got.err)
			}
		})
	}
}

// TestPinnedCommitKeepsItsPages: the ops a Commit reports lie in the
// memtable's pages, and its Pin keeps them intact through a flush that
// drops the memtable and a refill of the free list's pages.
func TestPinnedCommitKeepsItsPages(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	ops := []BatchOp{
		{Key: []byte("a"), Value: bytes.Repeat([]byte("a"), 700), ExpireAt: 99},
		{Key: []byte("gone"), Delete: true},
		{Key: []byte("b"), Value: bytes.Repeat([]byte("b"), 300)},
	}
	stored := make([]BatchOp, len(ops))
	if _, pin, err := db.Commit(ops, 0, stored); err != nil {
		t.Fatal(err)
	} else {
		retireAndRefill(t, db)
		for i, op := range ops {
			if s := stored[i]; !bytes.Equal(s.Key, op.Key) || !bytes.Equal(s.Value, op.Value) || s.ExpireAt != op.ExpireAt || s.Delete != op.Delete {
				t.Fatalf("stored op %d = %q=%.10q… exp %d del %v, want %q=%.10q…", i, s.Key, s.Value, s.ExpireAt, s.Delete, op.Key, op.Value)
			}
		}
		pin.Release()
	}
	if _, pin, err := db.Commit(ops, 0, nil); err != nil || pin != (Pin{}) {
		t.Fatalf("a commit with no stored = %+v, %v; want the zero Pin", pin, err)
	}
}

// TestPageAccounting: flush cycles reuse their pages, so the pages ever
// made stay within two memtables' worth, and once the DB is closed and
// the last pin on it released, every page is back in the free list
// (each list panics on a second release, so none is there twice).
func TestPageAccounting(t *testing.T) {
	// Empty the free list first, so no page of this test meets its cap.
	drain := skiplist.New(1)
	for i := 0; ; i++ {
		if _, free := skiplist.PoolPages(); free == 0 {
			break
		}
		drain.Put(fmt.Appendf(nil, "%06d", i), make([]byte, 16000))
	}
	defer drain.Release()
	db := openMem(t, Options{DisableAutoCompact: true})
	made0, free0 := skiplist.PoolPages()
	value := bytes.Repeat([]byte("v"), 1000)
	perMem := int64(0) // the most pages one memtable held
	for cycle := 0; cycle < 8; cycle++ {
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte(fmt.Sprintf("c%d-k%03d", cycle, i)), value, 0); err != nil {
				t.Fatal(err)
			}
		}
		perMem = max(perMem, (db.Stats().MemtablePageBytes+(64<<10)-1)/(64<<10))
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if made, _ := skiplist.PoolPages(); made-made0 > 2*perMem {
		t.Fatalf("8 flush cycles of %d-page memtables made %d pages, want at most %d", perMem, made-made0, 2*perMem)
	}

	stored := make([]BatchOp, 1)
	_, pin, err := db.Commit([]BatchOp{{Key: []byte("pinned"), Value: value}}, 0, stored)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	made, free := skiplist.PoolPages()
	want := free0 + int(made-made0)
	if free >= want {
		t.Fatalf("with a pin held, %d pages are free, want fewer than %d", free, want)
	}
	if !bytes.Equal(stored[0].Value, value) {
		t.Fatal("a pinned value changed after Close")
	}
	pin.Release()
	if _, free = skiplist.PoolPages(); free != want {
		t.Fatalf("after Close and the last release, %d pages are free, want %d", free, want)
	}
}

// stressValue is key k's value at version ver: a header naming both,
// then a pattern of a length they set, so a read can check every byte.
func stressValue(k, ver int) []byte {
	v := fmt.Appendf(nil, "k%02d v%05d|", k, ver)
	for i, n := 0, 200+(k*37+ver*11)%900; i < n; i++ {
		v = append(v, byte('a'+(k+ver+i)%26))
	}
	return v
}

// checkStress reports whether v is some version of key's value, byte for
// byte.
func checkStress(key, v []byte) error {
	var k, ver int
	if _, err := fmt.Sscanf(string(v), "k%02d v%05d|", &k, &ver); err != nil {
		return fmt.Errorf("%s holds %.24q…: %v", key, v, err)
	}
	if want := stressValue(k, ver); string(key) != fmt.Sprintf("k%02d", k) || !bytes.Equal(v, want) {
		return fmt.Errorf("%s holds a corrupt value %.24q… (%d B, want %d)", key, v, len(v), len(want))
	}
	return nil
}

// TestConcurrentReadsCheckEveryByte races commits (some holding their
// pins across later commits), Gets, ScanRanges, flushes and compactions
// on small memtables, so pages are released and reused throughout, and
// checks every value read or pinned byte for byte.
func TestConcurrentReadsCheckEveryByte(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 32 << 10, MaxTables: 3})
	const keys, commits = 48, 400
	key := func(k int) []byte { return fmt.Appendf(nil, "k%02d", k) }
	for k := 0; k < keys; k++ {
		if err := db.Put(key(k), stressValue(k, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	seed := uint64(1)
	spawn := func(fn func(rng *rand.Rand) error) {
		wg.Add(1)
		seed++
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			for !done.Load() {
				if err := fn(rng); err != nil {
					t.Error(err)
					done.Store(true)
				}
			}
		}(seed)
	}
	for r := 0; r < 2; r++ {
		spawn(func(rng *rand.Rand) error {
			k := key(rng.IntN(keys))
			got, err := db.Get(k)
			if err != nil {
				return fmt.Errorf("Get %s: %w", k, err)
			}
			return checkStress(k, got.Value)
		})
	}
	spawn(func(rng *rand.Rand) error {
		page, err := db.ScanRange(key(rng.IntN(keys)), 8, false)
		if err != nil {
			return fmt.Errorf("ScanRange: %w", err)
		}
		for _, e := range page.Entries {
			if err := checkStress(e.Key, e.Value); err != nil {
				return err
			}
		}
		return nil
	})
	spawn(func(rng *rand.Rand) error {
		if rng.IntN(4) == 0 {
			return db.Compact()
		}
		return db.Flush()
	})

	type held struct {
		ops, stored []BatchOp
		pin         Pin
	}
	var pinned []held
	checkHeld := func(h held) error {
		defer h.pin.Release()
		for i, op := range h.ops {
			if !bytes.Equal(h.stored[i].Key, op.Key) || !bytes.Equal(h.stored[i].Value, op.Value) {
				return fmt.Errorf("pinned op %s changed under its pin", op.Key)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewPCG(1, 0))
	ver := 0
	for c := 0; c < commits && !done.Load(); c++ {
		ops := make([]BatchOp, 1+rng.IntN(4))
		for i := range ops {
			ver++
			k := rng.IntN(keys)
			ops[i] = BatchOp{Key: key(k), Value: stressValue(k, ver)}
		}
		if c%8 != 0 {
			if _, _, err := db.Commit(ops, 0, nil); err != nil {
				t.Fatal(err)
			}
			continue
		}
		h := held{ops: ops, stored: make([]BatchOp, len(ops))}
		var err error
		if _, h.pin, err = db.Commit(ops, 0, h.stored); err != nil {
			t.Fatal(err)
		}
		if pinned = append(pinned, h); len(pinned) > 4 { // hold each across 32 commits
			if err := checkHeld(pinned[0]); err != nil {
				t.Error(err)
			}
			pinned = pinned[1:]
		}
	}
	done.Store(true)
	wg.Wait()
	for _, h := range pinned {
		if err := checkHeld(h); err != nil {
			t.Error(err)
		}
	}
	if err := errors.Join(db.Flush(), db.Compact()); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		got, err := db.Get(key(k))
		if err == nil {
			err = checkStress(key(k), got.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
