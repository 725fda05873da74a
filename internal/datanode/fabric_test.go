package datanode

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"abase/internal/partition"
	"abase/internal/skiplist"
)

// fabricTrio builds a primary and two followers of partition t/0 wired
// through one fabric, the primary's route naming both followers.
func fabricTrio(t *testing.T) (f *Fabric, primary *Node, followers [2]*Node, p partition.ID) {
	t.Helper()
	f = NewFabric()
	t.Cleanup(f.Close)
	p = pid("t", 0)
	primary = newTestNode(t, Config{ID: "p"})
	primary.SetReplicator(f)
	if err := primary.AddReplica(rid("t", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	var peers []Peer
	for i := range followers {
		followers[i] = newTestNode(t, Config{ID: fmt.Sprintf("f%d", i)})
		if err := followers[i].AddReplica(rid("t", 0, i+1), 1e9, false); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, f.Peer(p, followers[i]))
	}
	if err := primary.SetRoute(p, true, 1, peers); err != nil {
		t.Fatal(err)
	}
	return f, primary, followers, p
}

// TestFabricAppliesInOrderPerFollower pins the lane rule: concurrent
// writers overwrite a handful of keys, and afterwards every follower
// holds, for every key, exactly the value the primary holds — a pair of
// applies landing reversed would leave the older one — at the primary's
// replication position.
func TestFabricAppliesInOrderPerFollower(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	const writers, rounds, keys = 4, 200, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := []byte(fmt.Sprintf("k%d", i%keys))
				if _, err := primary.Put(bg, p, key, []byte(fmt.Sprintf("w%d-%d", w, i)), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	f.Flush()
	for _, fo := range followers {
		if got, want := fo.ReplicationPosition(p), primary.ReplicationPosition(p); got != want {
			t.Fatalf("%s at position %d, primary at %d", fo.ID(), got, want)
		}
		for k := 0; k < keys; k++ {
			key := []byte(fmt.Sprintf("k%d", k))
			want, err := primary.Get(bg, p, key)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fo.Get(bg, p, key)
			if err != nil || string(got.Value) != string(want.Value) {
				t.Fatalf("%s holds %s=%q (%v), primary %q", fo.ID(), key, got.Value, err, want.Value)
			}
		}
	}
}

// TestFabricFlushIsADrainMarker pins what Flush waits for: the messages
// enqueued before the call, not the ones that arrive while it waits. A
// message is held up by stalling its follower (the lane worker blocks
// resolving the replica under the follower's lock).
func TestFabricFlushIsADrainMarker(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	early, late := followers[0], followers[1]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, early)}); err != nil {
		t.Fatal(err)
	}
	early.mu.Lock()
	if _, err := primary.Put(bg, p, []byte("a"), []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() {
		f.Flush()
		close(flushed)
	}()
	// Give Flush time to take its marker. Too short a wait can only fail
	// the test (the later message would be counted in), never pass it.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-flushed:
		t.Fatal("Flush returned with an earlier message still queued")
	default:
	}

	// A message enqueued after the call, stuck behind the other follower.
	late.mu.Lock()
	defer late.mu.Unlock()
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, late)}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Put(bg, p, []byte("b"), []byte("2"), 0); err != nil {
		t.Fatal(err)
	}
	early.mu.Unlock()
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush waited for a message enqueued after the call")
	}
	if _, err := early.Get(bg, p, []byte("a")); err != nil {
		t.Fatalf("the message Flush waited for was not applied: %v", err)
	}
}

// TestStalledMessageKeepsItsPages: a replication message carries its ops
// as slices of the primary's memtable pages, so while it waits in a
// stalled lane those pages stay out of the free list — through a flush
// that drops the memtable and a refill of the free list — and the
// follower applies the value intact once the lane moves. The lane is
// stalled by holding the follower's lock, as in
// TestFabricFlushIsADrainMarker.
func TestStalledMessageKeepsItsPages(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	fo := followers[0]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, fo)}); err != nil {
		t.Fatal(err)
	}
	rep, err := primary.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("0123456789"), 100)
	var free, after int
	filler := bytes.Repeat([]byte{'x'}, 1000)
	fo.mu.Lock()
	if _, err = primary.Put(bg, p, []byte("k"), want, 0); err == nil {
		_, free = skiplist.PoolPages()
		err = rep.db.Flush()
		_, after = skiplist.PoolPages()
	}
	for i := 0; i < 300 && err == nil; i++ {
		err = rep.db.Put([]byte(fmt.Sprintf("fill%03d", i)), filler, 0)
	}
	fo.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if after != free {
		t.Errorf("the flush gave %d pages back while a queued message held them", after-free)
	}
	f.Flush()
	got, err := fo.Get(bg, p, []byte("k"))
	if err != nil || !bytes.Equal(got.Value, want) {
		t.Fatalf("the follower applied k = %.20q…, %v; want the value the primary committed", got.Value, err)
	}
}
