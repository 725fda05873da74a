package datanode

import (
	"errors"
	"testing"
	"time"

	"abase/internal/lavastore"
)

func TestChangesReadsCommittedLog(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := n.Put(bg, p, []byte(k), []byte("v-"+k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := del(n, p, []byte("b")); err != nil {
		t.Fatal(err)
	}
	batch, err := n.Changes(bg, p, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Events) != 4 {
		t.Fatalf("Changes returned %d events, want 4", len(batch.Events))
	}
	for i, ev := range batch.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if !batch.Events[3].Delete || string(batch.Events[3].Key) != "b" {
		t.Fatalf("last event = %+v, want delete of b", batch.Events[3])
	}
	if batch.End != 4 || batch.Next != 5 {
		t.Fatalf("batch bounds Next=%d End=%d", batch.Next, batch.End)
	}
	// Paged read: max bounds each page and Next resumes it.
	page, err := n.Changes(bg, p, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Next != 3 {
		t.Fatalf("page = %d events, Next=%d", len(page.Events), page.Next)
	}
}

func TestChangesFollowerRejected(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 1), 1000, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Changes(bg, pid("t1", 0), 0, 10); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("Changes on follower: %v, want ErrNotPrimary", err)
	}
}

func TestChangesSignalFiresOnCommit(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	ch, cancel, err := n.ChangesSignal(p)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := n.Put(bg, p, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("commit signal never fired")
	}
	// cancel closes the channel so waiters unblock.
	cancel()
	if _, ok := <-ch; ok {
		// A buffered signal may still be pending; the channel must be
		// closed right after.
		if _, ok := <-ch; ok {
			t.Fatal("signal channel still open after cancel")
		}
	}
}

func TestHoldChangesRetainsHistoryAcrossFlush(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	rep, err := n.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.HoldChanges(p, "sub-1", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := n.Put(bg, p, []byte{byte('a' + i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := rep.db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// With the hold in place every rotated segment is retained.
	batch, err := n.Changes(bg, p, 1, 100)
	if err != nil {
		t.Fatalf("Changes under hold: %v", err)
	}
	if len(batch.Events) != 16 {
		t.Fatalf("Changes under hold returned %d events, want 16", len(batch.Events))
	}
	// Releasing the hold prunes the rotated segments; the old range
	// then reports truncation instead of a partial answer.
	if err := n.ReleaseChanges(p, "sub-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Changes(bg, p, 1, 100); !errors.Is(err, lavastore.ErrHistoryTruncated) {
		t.Fatalf("Changes after release: %v, want ErrHistoryTruncated", err)
	}
}

func TestHoldChangesExpires(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	rep, err := n.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.HoldChanges(p, "sub-ttl", 1, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := n.Put(bg, p, []byte{byte('a' + i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The lease lapsed; lazy expiry on the read path drops the hold,
	// pruning runs, and the early range is gone.
	if _, err := n.Changes(bg, p, 1, 100); !errors.Is(err, lavastore.ErrHistoryTruncated) {
		t.Fatalf("Changes with lapsed hold: %v, want ErrHistoryTruncated", err)
	}
}

func TestChangesBounds(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	lo, end, err := n.ChangesBounds(p)
	if err != nil || lo != 1 || end != 0 {
		t.Fatalf("empty bounds = %d..%d, %v", lo, end, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.Put(bg, p, []byte{byte('a' + i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	lo, end, err = n.ChangesBounds(p)
	if err != nil || lo != 1 || end != 5 {
		t.Fatalf("bounds = %d..%d, %v", lo, end, err)
	}
}

// TestChangesServesAheadOfFollowers: Changes serves what the primary has
// committed and handed to replication, not what its followers applied.
// The follower's lane is occupied, as in TestFabricFlushIsADrainMarker,
// so the write queues there and is not applied; the primary serves the
// write's event at once, while the follower's replication position is
// still below it. A failover to that follower would lose an event a
// subscriber has seen.
func TestChangesServesAheadOfFollowers(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	fo := followers[0]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, fo)}); err != nil {
		t.Fatal(err)
	}
	frep, err := fo.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	occupy(t, f, p, fo)
	if _, err := primary.Put(bg, p, []byte("a"), []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	batch, err := primary.Changes(bg, p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Events) != 1 || batch.End != 1 {
		t.Fatalf("Changes served %d events up to %d, want the write at 1", len(batch.Events), batch.End)
	}
	if pos := frep.replPos.Load(); pos >= batch.End {
		t.Fatalf("the follower is at %d, want it below the served event %d", pos, batch.End)
	}
}
