package datanode

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"abase/internal/partition"
	"abase/internal/skiplist"
)

// fabricTrio builds a primary and two followers of partition t/0 wired
// through one fabric, the primary's route naming both followers.
func fabricTrio(t testing.TB) (f *Fabric, primary *Node, followers [2]*Node, p partition.ID) {
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

// occupy makes n's lane for p busy with a marker whose unbuffered
// channel nobody reads yet. The lane counts it, so a write to n queues
// behind it instead of applying inline, and waits there: the lane is
// stalled. release reads the marker and returns once the lane's worker
// has reached it; cleanup calls it if the test has not.
func occupy(t *testing.T, f *Fabric, p partition.ID, n *Node) (release func()) {
	reached := make(chan struct{})
	f.Peer(p, n).lane.queue(replJob{mark: reached})
	release = sync.OnceFunc(func() { <-reached })
	t.Cleanup(release)
	return release
}

// holds blocks until n's lane for p counts at least want jobs: the
// handshake that tells a test a Flush marker or an inline apply is in.
func holds(f *Fabric, p partition.ID, n *Node, want int64) {
	for l := f.Peer(p, n).lane; l.n.Load() < want; {
		runtime.Gosched()
	}
}

// shut reports whether Close has closed l.
func shut(l *lane) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.closed
}

// TestFabricFlushIsADrainMarker pins what Flush waits for: the messages
// enqueued before the call, not the ones that arrive while it waits. A
// message is held up by occupying its lane (see occupy).
func TestFabricFlushIsADrainMarker(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	early, late := followers[0], followers[1]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, early)}); err != nil {
		t.Fatal(err)
	}
	releaseEarly := occupy(t, f, p, early)
	if _, err := primary.Put(bg, p, []byte("a"), []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() {
		f.Flush()
		close(flushed)
	}()
	holds(f, p, early, 3) // the occupant, "a" and Flush's marker
	select {
	case <-flushed:
		t.Fatal("Flush returned with an earlier message still queued")
	default:
	}

	// A message enqueued after the call, stuck behind its own occupant.
	occupy(t, f, p, late)
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, late)}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Put(bg, p, []byte("b"), []byte("2"), 0); err != nil {
		t.Fatal(err)
	}
	releaseEarly()
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
// stalled by occupying it, as in TestFabricFlushIsADrainMarker.
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
	release := occupy(t, f, p, fo)
	if _, err = primary.Put(bg, p, []byte("k"), want, 0); err == nil {
		_, free = skiplist.PoolPages()
		err = rep.db.Flush()
		_, after = skiplist.PoolPages()
	}
	for i := 0; i < 300 && err == nil; i++ {
		err = rep.db.Put([]byte(fmt.Sprintf("fill%03d", i)), filler, 0)
	}
	release()
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

// apart fails the test unless the fabric queues the two followers'
// messages in different lanes, which the tests that stall one lane and
// watch the other rely on.
func apart(t *testing.T, f *Fabric, p partition.ID, a, b *Node) {
	t.Helper()
	if f.Peer(p, a).lane == f.Peer(p, b).lane {
		t.Fatalf("%s and %s share a lane", a.ID(), b.ID())
	}
}

// laneReached blocks until the worker of n's lane for p has applied
// everything queued there before the call.
func laneReached(f *Fabric, p partition.ID, n *Node) {
	reached := make(chan struct{}, 1)
	f.Peer(p, n).lane.queue(replJob{mark: reached})
	<-reached
}

// TestFlushWaitsForItsOwnMessages: a message applied on another lane
// after the call cannot stand in for one queued before it. Flush is
// called with "a" stalled in f0's lane; "b" then goes to f1 on a
// different lane and is applied, and Flush must still wait for "a".
func TestFlushWaitsForItsOwnMessages(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	f0, f1 := followers[0], followers[1]
	apart(t, f, p, f0, f1)
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, f0)}); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	release := occupy(t, f, p, f0)
	_, err := primary.Put(bg, p, []byte("a"), []byte("1"), 0)
	if err == nil {
		go func() {
			f.Flush()
			close(flushed)
		}()
		// Flush's marker is in f0's lane before "b" is queued: with "b"
		// queued first, a drain that counts messages would also wait for
		// "a", and the test could not tell it from a barrier.
		holds(f, p, f0, 3)
		err = primary.SetRoute(p, true, 1, []Peer{f.Peer(p, f1)})
	}
	if err == nil {
		_, err = primary.Put(bg, p, []byte("b"), []byte("2"), 0)
	}
	if err == nil {
		laneReached(f, p, f1)
		if f1.ReplicationPosition(p) < primary.ReplicationPosition(p) {
			err = errors.New("f1 never applied the later message")
		}
	}
	if err == nil {
		select {
		case <-flushed:
			err = errors.New("Flush returned with a message queued before the call still unapplied")
		case <-time.After(50 * time.Millisecond):
		}
	}
	release()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not return once its lanes moved")
	}
	if _, err := f0.Get(bg, p, []byte("a")); err != nil {
		t.Fatalf("Flush returned before the message it waited for was applied: %v", err)
	}
}

// TestEveryJobHoldsItsPages: each follower's job holds its own reference
// on the primary's memtable pages. With f0's lane stalled and f1's job
// applied, a flush that drops the primary's memtable gives no page back;
// once f0's job is applied too, the pages return to the free list.
func TestEveryJobHoldsItsPages(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	f0, f1 := followers[0], followers[1]
	apart(t, f, p, f0, f1)
	rep, err := primary.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	// A first write gives every memtable its pages, so f0's apply below
	// takes none from the free list while the primary's go back.
	if _, err = primary.Put(bg, p, []byte("warm"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	var free, held int
	release := occupy(t, f, p, f0)
	if _, err = primary.Put(bg, p, []byte("k"), bytes.Repeat([]byte("v"), 1000), 0); err == nil {
		laneReached(f, p, f1) // f1's job is applied and released
		_, free = skiplist.PoolPages()
		err = rep.db.Flush()
		_, held = skiplist.PoolPages()
	}
	release()
	if err != nil {
		t.Fatal(err)
	}
	if held != free {
		t.Errorf("the flush gave %d pages back while f0's job held them", held-free)
	}
	f.Flush()
	if _, back := skiplist.PoolPages(); back <= held {
		t.Errorf("free list at %d pages after both jobs were applied, %d before: the pages did not return", back, held)
	}
}

// TestFlushReturnsAcrossClose: a Flush called after Close returns, and
// so does one blocked behind a stalled lane while Close runs.
func TestFlushReturnsAcrossClose(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	done := func(fn func()) <-chan struct{} {
		c := make(chan struct{})
		go func() {
			fn()
			close(c)
		}()
		return c
	}
	wait := func(what string, c <-chan struct{}) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung", what)
		}
	}

	fo := followers[0]
	var flushed, closed <-chan struct{}
	release := occupy(t, f, p, fo)
	_, err := primary.Put(bg, p, []byte("k"), []byte("v"), 0)
	if err == nil {
		flushed = done(f.Flush)
		holds(f, p, fo, 3) // Flush's marker waits behind the stalled lane
		closed = done(f.Close)
		for l := f.Peer(p, fo).lane; !shut(l); { // Close has begun
			runtime.Gosched()
		}
	}
	release()
	if err != nil {
		t.Fatal(err)
	}
	wait("a Flush blocked behind a stalled lane while Close ran", flushed)
	wait("Close", closed)
	wait("a Flush after Close", done(f.Flush))
}

// TestIdleLaneAppliesBeforeAck: a point write whose lanes are idle is
// applied on both followers before Put returns, with no Flush.
func TestIdleLaneAppliesBeforeAck(t *testing.T) {
	_, primary, followers, p := fabricTrio(t)
	for i := 0; i < 100; i++ {
		if _, err := primary.Put(bg, p, []byte(fmt.Sprintf("k%d", i%7)), []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
		for _, fo := range followers {
			if got, want := fo.ReplicationPosition(p), primary.ReplicationPosition(p); got != want {
				t.Fatalf("write %d: %s at position %d when Put returned, primary at %d", i, fo.ID(), got, want)
			}
		}
	}
}

// TestStalledFollowerHoldsOneWrite: a stalled follower (its lock held)
// holds exactly the one write that found its lane idle. That write's
// Put blocks applying inline; the lane then counts as busy, so every
// later Put to it queues and returns. Once the follower moves, every
// write is applied and the newest value stands.
func TestStalledFollowerHoldsOneWrite(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	fo := followers[0]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, fo)}); err != nil {
		t.Fatal(err)
	}
	put := func(i int) error {
		_, err := primary.Put(bg, p, []byte("k"), []byte(fmt.Sprintf("v%d", i)), 0)
		return err
	}
	const writes = 10
	first := make(chan error, 1)
	later := make(chan error, 1)
	var err error
	fo.mu.Lock()
	go func() { first <- put(0) }()
	holds(f, p, fo, 1) // the first write claimed the lane
	go func() {
		for i := 1; i < writes; i++ {
			if err := put(i); err != nil {
				later <- err
				return
			}
		}
		later <- nil
	}()
	select {
	case err = <-later:
	case <-time.After(5 * time.Second):
		err = errors.New("a Put behind the inline one did not return")
	}
	if err == nil {
		select {
		case <-first:
			err = errors.New("the first Put returned while its follower was stalled")
		default:
		}
	}
	if n := f.Peer(p, fo).lane.n.Load(); err == nil && n != writes {
		err = fmt.Errorf("the lane counts %d jobs, want %d: one inline, the rest queued", n, writes)
	}
	fo.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	f.Flush()
	if got, want := fo.ReplicationPosition(p), primary.ReplicationPosition(p); got != want {
		t.Fatalf("follower at position %d, primary at %d", got, want)
	}
	if got, err := fo.Get(bg, p, []byte("k")); err != nil || string(got.Value) != fmt.Sprintf("v%d", writes-1) {
		t.Fatalf("follower holds k = %q (%v), want the newest value", got.Value, err)
	}
}

// TestGroupCommitQueues: a group commit's jobs always queue, so a
// MultiWrite returns while its follower is stalled on an idle lane.
func TestGroupCommitQueues(t *testing.T) {
	f, primary, followers, p := fabricTrio(t)
	fo := followers[0]
	if err := primary.SetRoute(p, true, 1, []Peer{f.Peer(p, fo)}); err != nil {
		t.Fatal(err)
	}
	ops := []Mutation{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}
	wrote := make(chan error, 1)
	var err error
	fo.mu.Lock()
	go func() { wrote <- primary.MultiWrite(bg, []PutBatch{{PID: p, Ops: ops}})[0].Err }()
	select {
	case err = <-wrote:
	case <-time.After(5 * time.Second):
		err = errors.New("MultiWrite waited for its stalled follower")
	}
	fo.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	f.Flush()
	for _, op := range ops {
		if got, err := fo.Get(bg, p, op.Key); err != nil || !bytes.Equal(got.Value, op.Value) {
			t.Fatalf("follower holds %s = %q (%v), want %q", op.Key, got.Value, err, op.Value)
		}
	}
}

// BenchmarkNodePutReplicated is BenchmarkNodePut on a primary that
// replicates every write to two followers over one Fabric. Each Put
// finds its followers' lanes idle, so it is the write path plus both
// follower applies, run inline on the writer: no lane worker wakes.
// Keys are built before the timer starts.
func BenchmarkNodePutReplicated(b *testing.B) {
	f, primary, _, p := fabricTrio(b)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := primary.Put(bg, p, keys[i%len(keys)], val, 0); err != nil {
			b.Fatal(err)
		}
	}
	f.Flush()
}
