package lavastore

import (
	"errors"
	"testing"
	"time"

	"abase/internal/clock"
)

// TestDeadline: a TTL becomes a whole-second deadline that truncates
// but never lands before one second past now; no TTL is no deadline.
func TestDeadline(t *testing.T) {
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		now  time.Time
		ttl  time.Duration
		want int64
	}{
		{base, time.Hour, base.Unix() + 3600},
		{base, 1500 * time.Millisecond, base.Unix() + 1},
		{base.Add(900 * time.Millisecond), 1500 * time.Millisecond, base.Unix() + 2},
		{base.Add(900 * time.Millisecond), 50 * time.Millisecond, base.Unix() + 1},
		{base, time.Nanosecond, base.Unix() + 1},
		{base, 0, 0},
		{base, -time.Hour, 0},
	} {
		if got := Deadline(tc.now, tc.ttl); got != tc.want {
			t.Errorf("Deadline(%v, %v) = %d, want %d", tc.now, tc.ttl, got, tc.want)
		}
	}
}

// TestTTLQuery: Put turns its TTL into a deadline once; the
// deadline is absolute, so it does not move as the clock does.
func TestTTLQuery(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	want := sim.Now().Unix() + 3600
	db.Put([]byte("k"), []byte("v"), time.Hour)
	if got, err := db.ExpireAt([]byte("k")); err != nil || got != want {
		t.Fatalf("ExpireAt = %d, %v; want %d", got, err, want)
	}
	sim.Advance(30 * time.Minute)
	if got, err := db.ExpireAt([]byte("k")); err != nil || got != want {
		t.Fatalf("ExpireAt after 30m = %d, %v; want %d", got, err, want)
	}
}

func TestTTLNoExpiry(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("k"), []byte("v"), 0)
	if got, err := db.ExpireAt([]byte("k")); err != nil || got != 0 {
		t.Fatalf("ExpireAt = %d, %v; want 0, nil", got, err)
	}
}

func TestTTLAbsentAndExpired(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	if _, err := db.ExpireAt([]byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent: %v", err)
	}
	db.Put([]byte("k"), []byte("v"), time.Minute)
	sim.Advance(2 * time.Minute)
	if _, err := db.ExpireAt([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired: %v", err)
	}
}

func TestTTLSurvivesFlush(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	db := openMem(t, Options{Clock: sim})
	db.Put([]byte("k"), []byte("v"), time.Hour)
	db.Flush()
	if got, err := db.ExpireAt([]byte("k")); err != nil || got != sim.Now().Unix()+3600 {
		t.Fatalf("ExpireAt after flush = %d, %v", got, err)
	}
}

// nowCounter is a simulated clock that counts reads of now.
type nowCounter struct {
	*clock.Sim
	reads int
}

func (c *nowCounter) Now() time.Time { c.reads++; return c.Sim.Now() }

// TestCommitStoresDeadlineVerbatim: Commit stores the deadline it is
// given — also one already past, which then reads as expired — and
// reads no clock to do it.
func TestCommitStoresDeadlineVerbatim(t *testing.T) {
	clk := &nowCounter{Sim: clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))}
	db := openMem(t, Options{Clock: clk})
	future, past := clk.Sim.Now().Unix()+7, clk.Sim.Now().Unix()-1
	if _, _, err := db.Commit([]BatchOp{
		{Key: []byte("f"), Value: []byte("v"), ExpireAt: future},
		{Key: []byte("p"), Value: []byte("v"), ExpireAt: past},
	}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if clk.reads != 0 {
		t.Fatalf("Commit read the clock %d times", clk.reads)
	}
	if got, err := db.ExpireAt([]byte("f")); err != nil || got != future {
		t.Fatalf("ExpireAt(f) = %d, %v; want %d", got, err, future)
	}
	if _, err := db.ExpireAt([]byte("p")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a past deadline reads as %v, want ErrNotFound", err)
	}
}

// TestTTLCountsTableReads: ExpireAt reads through the same lookup
// as Get, so a key held only in a flushed table costs it the same table
// reads, and Stats.GetIOReads counts them.
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
	if _, err := db.ExpireAt([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if got, want := db.Stats().GetIOReads-afterGet, afterGet-before; got != want {
		t.Fatalf("ExpireAt added %d to GetIOReads, Get added %d", got, want)
	}
}
