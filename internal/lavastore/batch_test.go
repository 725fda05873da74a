package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestWriteBatchMixedOps: one group Commit of puts, a delete, a TTL and
// an in-batch overwrite applies in order.
func TestWriteBatchMixedOps(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("gone"), []byte("v"), 0)
	exp := Deadline(time.Now(), time.Hour)
	_, _, err := db.Commit([]BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("gone"), Delete: true},
		{Key: []byte("b"), Value: []byte("2"), ExpireAt: exp},
		{Key: []byte("a"), Value: []byte("1b")}, // overwrite inside the batch
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("a")); err != nil || string(got.Value) != "1b" {
		t.Fatalf("a = %q, %v", got.Value, err)
	}
	if _, err := db.Get([]byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gone survived: %v", err)
	}
	if got, err := db.ExpireAt([]byte("b")); err != nil || got != exp {
		t.Fatalf("b ExpireAt = %d, %v; want %d", got, err, exp)
	}
}

// TestWriteBatchRecovery: records written through the group-committed
// path replay from the WAL exactly like per-key writes.
func TestWriteBatchRecovery(t *testing.T) {
	fs := NewMemFS()
	db, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 20)
	for i := range ops {
		ops[i] = BatchOp{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i))}
	}
	if _, _, err := db.Commit(ops, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Mutate after the batch so sequence ordering crosses the modes.
	db.Put([]byte("k00"), []byte("v00-after"), 0)
	db.Close()

	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, err := db2.Get([]byte("k00")); err != nil || string(got.Value) != "v00-after" {
		t.Fatalf("k00 after recovery = %q, %v", got.Value, err)
	}
	for i := 1; i < 20; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		got, err := db2.Get(key)
		if err != nil || !bytes.Equal(got.Value, []byte(fmt.Sprintf("v%02d", i))) {
			t.Fatalf("%s after recovery = %q, %v", key, got.Value, err)
		}
	}
}

// TestOverwriteWorkloadRotatesWAL: rewriting the same keys keeps the
// memtable small, but the WAL must still rotate (bounding log size and
// crash-recovery replay time).
func TestOverwriteWorkloadRotatesWAL(t *testing.T) {
	db := openMem(t, Options{MemtableBytes: 4 << 10})
	value := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte("hot"), value, 0); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("overwrite-only workload never rotated the WAL")
	}
}

// TestWriteBatchEmptyAndClosed: an empty Commit is a no-op; a closed DB
// refuses both engine-assigned and forced commits.
func TestWriteBatchEmptyAndClosed(t *testing.T) {
	db := openMem(t, Options{})
	if last, _, err := db.Commit(nil, 0, nil); err != nil || last != 0 {
		t.Fatalf("empty Commit = %d, %v", last, err)
	}
	db.Close()
	if _, _, err := db.Commit([]BatchOp{{Key: []byte("k"), Value: []byte("v")}}, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed Commit err = %v", err)
	}
	if _, err := put(db, "k", "v", 7); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed forced Commit err = %v", err)
	}
}
