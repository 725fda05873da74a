package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"abase/internal/lavastore"
)

// reopen opens a recovered DB on the snapshot fs, failing the test if
// recovery itself fails — crashes must never make Open error out.
func reopen(t *testing.T, fs lavastore.FS, dir string) *lavastore.DB {
	t.Helper()
	db, err := lavastore.Open(lavastore.Options{FS: fs, Dir: dir})
	if err != nil {
		t.Fatalf("Open after simulated crash: %v", err)
	}
	return db
}

// TestWALTornTailRecovery is the regression test for torn-final-record
// recovery: a crash mid-WAL-append must not fail Open, and every write
// acknowledged before the torn one must survive.
func TestWALTornTailRecovery(t *testing.T) {
	const dir = "torn"
	fs := NewFS(nil)
	db, err := lavastore.Open(lavastore.Options{FS: fs, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the next WAL append after 5 bytes: a half-written header.
	fs.TearNextWrite(5)
	if err := db.Put([]byte("torn-key"), []byte("torn-value"), 0); err == nil {
		t.Fatal("torn write unexpectedly succeeded")
	}
	// Crash here: reopen on the exact current disk state.
	snap := fs.SnapshotAt(fs.Ops())
	db2 := reopen(t, snap, dir)
	defer db2.Close()
	for i := 0; i < 20; i++ {
		got, err := db2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil {
			t.Fatalf("k%02d lost after torn-tail recovery: %v", i, err)
		}
		if want := fmt.Sprintf("v%02d", i); string(got.Value) != want {
			t.Fatalf("k%02d = %q, want %q", i, got.Value, want)
		}
	}
	if _, err := db2.Get([]byte("torn-key")); !errors.Is(err, lavastore.ErrNotFound) {
		t.Fatalf("torn (unacknowledged) key should be absent, got err=%v", err)
	}
}

// TestWALTornGroupCommit tears a multi-record group commit (one device
// write carrying several frames) at several cut points: recovery keeps
// the fully-framed prefix and never fails Open.
func TestWALTornGroupCommit(t *testing.T) {
	for _, cut := range []int{0, 1, 7, 8, 9, 20, 40} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			const dir = "group"
			fs := NewFS(nil)
			db, err := lavastore.Open(lavastore.Options{FS: fs, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("base"), []byte("safe"), 0); err != nil {
				t.Fatal(err)
			}
			fs.TearNextWrite(cut)
			_, _, _ = db.Commit([]lavastore.BatchOp{
				{Key: []byte("b0"), Value: []byte("x")},
				{Key: []byte("b1"), Value: []byte("y")},
				{Key: []byte("b2"), Value: []byte("z")},
			}, 0, nil)
			db2 := reopen(t, fs.SnapshotAt(fs.Ops()), dir)
			defer db2.Close()
			if _, err := db2.Get([]byte("base")); err != nil {
				t.Fatalf("acknowledged pre-batch key lost: %v", err)
			}
		})
	}
}

// TestCrashTorture is the property-style recovery test: a scripted
// interleaving of Put/delete/group Commit/Flush/Compact runs against a
// journaling FS, then the store is "crashed" at EVERY mutation
// boundary (plus torn mid-write variants), reopened, and compared
// against the model of acknowledged writes. The only keys allowed to
// differ are those touched by the single in-flight operation.
func TestCrashTorture(t *testing.T) {
	const (
		dir      = "torture"
		keySpace = 24
		steps    = 110
	)
	rng := rand.New(rand.NewSource(7))
	fs := NewFS(nil)
	db, err := lavastore.Open(lavastore.Options{
		FS:            fs,
		Dir:           dir,
		MemtableBytes: 512, // force frequent flushes (and with them compactions)
		MaxTables:     3,
	})
	if err != nil {
		t.Fatal(err)
	}

	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }

	// One checkpoint after every acknowledged operation: the journal
	// position, the model of acknowledged state, and the keys the NEXT
	// operation will touch (indeterminate at crash points inside it).
	type checkpoint struct {
		ops   int
		model map[string]string
		next  map[string]bool
	}
	model := map[string]string{}
	snapshotModel := func() map[string]string {
		m := make(map[string]string, len(model))
		for k, v := range model {
			m[k] = v
		}
		return m
	}
	cps := []checkpoint{{ops: fs.Ops(), model: snapshotModel()}}

	for step := 0; step < steps; step++ {
		touched := map[string]bool{}
		switch r := rng.Intn(100); {
		case r < 55: // Put
			k, v := key(rng.Intn(keySpace)), fmt.Sprintf("val-%04d", step)
			touched[string(k)] = true
			if err := db.Put(k, []byte(v), 0); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			model[string(k)] = v
		case r < 70: // Delete
			k := key(rng.Intn(keySpace))
			touched[string(k)] = true
			if _, _, err := db.Commit([]lavastore.BatchOp{{Key: k, Delete: true}}, 0, nil); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, string(k))
		case r < 85: // atomic group commit
			n := 2 + rng.Intn(4)
			ops := make([]lavastore.BatchOp, 0, n)
			for j := 0; j < n; j++ {
				k := key(rng.Intn(keySpace))
				touched[string(k)] = true
				if rng.Intn(5) == 0 {
					ops = append(ops, lavastore.BatchOp{Key: k, Delete: true})
				} else {
					ops = append(ops, lavastore.BatchOp{Key: k, Value: []byte(fmt.Sprintf("bat-%04d-%d", step, j))})
				}
			}
			if _, _, err := db.Commit(ops, 0, nil); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			for j, op := range ops {
				if op.Delete {
					delete(model, string(op.Key))
				} else {
					model[string(op.Key)] = fmt.Sprintf("bat-%04d-%d", step, j)
				}
			}
		case r < 93: // Flush
			if err := db.Flush(); err != nil {
				t.Fatalf("step %d flush: %v", step, err)
			}
		default: // Compact
			if err := db.Compact(); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		}
		cps[len(cps)-1].next = touched
		cps = append(cps, checkpoint{ops: fs.Ops(), model: snapshotModel()})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	verify := func(t *testing.T, snap *lavastore.MemFS, cp checkpoint, boundary string) {
		db2 := reopen(t, snap, dir)
		defer db2.Close()
		for i := 0; i < keySpace; i++ {
			k := key(i)
			if cp.next[string(k)] {
				continue // in-flight at the crash: either outcome is legal
			}
			want, exists := cp.model[string(k)]
			got, err := db2.Get(k)
			switch {
			case exists && err != nil:
				t.Fatalf("%s: acknowledged key %s lost: %v", boundary, k, err)
			case exists && string(got.Value) != want:
				t.Fatalf("%s: key %s = %q, want %q", boundary, k, got.Value, want)
			case !exists && err == nil:
				t.Fatalf("%s: deleted key %s resurrected as %q", boundary, k, got.Value)
			case !exists && !errors.Is(err, lavastore.ErrNotFound):
				t.Fatalf("%s: key %s: unexpected error %v", boundary, k, err)
			}
		}
	}

	// Crash at every mutation boundary...
	total := fs.Ops()
	ci := 0
	for c := 0; c <= total; c++ {
		for ci+1 < len(cps) && cps[ci+1].ops <= c {
			ci++
		}
		verify(t, fs.SnapshotAt(c), cps[ci], fmt.Sprintf("boundary %d/%d", c, total))
		// ...plus a torn mid-write variant at every third boundary.
		if c < total && c%3 == 0 {
			verify(t, fs.SnapshotTornAt(c, 1+rng.Intn(16)), cps[ci],
				fmt.Sprintf("torn boundary %d/%d", c, total))
		}
	}
}
