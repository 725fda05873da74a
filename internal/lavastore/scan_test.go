package lavastore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
)

func TestScanMergesAllLayers(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	// Layer 1: old table.
	db.Put([]byte("a"), []byte("old-a"), 0)
	db.Put([]byte("b"), []byte("b"), 0)
	db.Flush()
	// Layer 2: newer table overwrites a, adds c.
	db.Put([]byte("a"), []byte("new-a"), 0)
	db.Put([]byte("c"), []byte("c"), 0)
	db.Flush()
	// Layer 3: memtable adds d, deletes b.
	db.Put([]byte("d"), []byte("d"), 0)
	del(db, []byte("b"))

	got := map[string]string{}
	var keysInOrder []string
	err := db.Scan(func(e ScanEntry) bool {
		got[string(e.Key)] = string(e.Value)
		keysInOrder = append(keysInOrder, string(e.Key))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "new-a", "c": "c", "d": "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("got[%s] = %q, want %q", k, got[k], v)
		}
	}
	for i := 1; i < len(keysInOrder); i++ {
		if keysInOrder[i] <= keysInOrder[i-1] {
			t.Fatalf("scan out of order: %v", keysInOrder)
		}
	}
}

func TestScanSkipsExpired(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	db.Put([]byte("ttl"), []byte("v"), time.Minute)
	db.Put([]byte("live"), []byte("v"), 0)
	sim.Advance(time.Hour)
	n, err := liveKeys(db)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Keys = %d, want 1", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := openMem(t, Options{})
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0)
	}
	seen := 0
	db.Scan(func(ScanEntry) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("seen = %d", seen)
	}
}

func TestScanClosed(t *testing.T) {
	db := openMem(t, Options{})
	db.Close()
	if err := db.Scan(func(ScanEntry) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeysEmpty(t *testing.T) {
	db := openMem(t, Options{})
	if n, _ := liveKeys(db); n != 0 {
		t.Fatalf("Keys = %d", n)
	}
}
