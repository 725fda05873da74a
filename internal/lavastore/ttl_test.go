package lavastore

import (
	"errors"
	"testing"
	"time"

	"abase/internal/clock"
)

func TestTTLQuery(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	db.Put([]byte("k"), []byte("v"), time.Hour)
	ttl, err := db.TTL([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if ttl < 59*time.Minute || ttl > time.Hour {
		t.Fatalf("TTL = %v, want ≈1h", ttl)
	}
	sim.Advance(30 * time.Minute)
	ttl, _ = db.TTL([]byte("k"))
	if ttl < 29*time.Minute || ttl > 31*time.Minute {
		t.Fatalf("TTL after 30m = %v", ttl)
	}
}

func TestTTLNoExpiry(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("k"), []byte("v"), 0)
	if _, err := db.TTL([]byte("k")); !errors.Is(err, ErrNoTTL) {
		t.Fatalf("err = %v", err)
	}
}

func TestTTLAbsentAndExpired(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	if _, err := db.TTL([]byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
	db.Put([]byte("k"), []byte("v"), time.Minute)
	sim.Advance(2 * time.Minute)
	if _, err := db.TTL([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired: %v", err)
	}
}

func TestTTLSurvivesFlush(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	db.Put([]byte("k"), []byte("v"), time.Hour)
	db.Flush()
	ttl, err := db.TTL([]byte("k"))
	if err != nil || ttl <= 0 {
		t.Fatalf("TTL after flush = %v, %v", ttl, err)
	}
}

// TestTTLCountsTableReads: TTL reads through the same lookup as Get, so
// a key held only in a flushed table costs it the same table reads, and
// Stats.GetIOReads counts them.
func TestTTLCountsTableReads(t *testing.T) {
	db := openMem(t, Options{DisableAutoCompact: true})
	db.Put([]byte("k"), []byte("v"), time.Hour)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().GetIOReads
	res, err := db.Get([]byte("k"))
	if err != nil || res.IOReads == 0 {
		t.Fatalf("Get from a table: %d reads, %v", res.IOReads, err)
	}
	afterGet := db.Stats().GetIOReads
	if _, err := db.TTL([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if got, want := db.Stats().GetIOReads-afterGet, afterGet-before; got != want {
		t.Fatalf("TTL added %d to GetIOReads, Get added %d", got, want)
	}
}
