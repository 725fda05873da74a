package datanode

import (
	"sync"
	"testing"
	"time"

	"abase/internal/clock"
)

// parkingClock is the real clock, except that the first Sleep — the
// read cost a cache-missing Get burns between its engine read and its
// SA-LRU fill — reports on parked and waits for release; every later
// Sleep returns at once.
type parkingClock struct {
	clock.Real
	once            sync.Once
	parked, release chan struct{}
}

func (c *parkingClock) Sleep(time.Duration) {
	c.once.Do(func() {
		close(c.parked)
		<-c.release
	})
}

// TestReadFillLosesToWriteThrough parks a cache-missing Get between its
// engine read and its SA-LRU fill, and commits a Put of the same key
// meanwhile: the Put writes its value through to the SA-LRU, and the
// parked read's fill, carrying the older engine value, must not replace
// it. A Get after both then serves the Put's value.
func TestReadFillLosesToWriteThrough(t *testing.T) {
	clk := &parkingClock{parked: make(chan struct{}), release: make(chan struct{})}
	n := newTestNode(t, Config{Clock: clk, Cost: CostModel{IOReadTime: time.Microsecond}})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	p, key := pid("t1", 0), []byte("k")
	// A replicated apply stores v1 and leaves the SA-LRU without it.
	if err := n.ApplyReplicated(p, 0, WriteOp{Key: key, Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	read := make(chan OpResult, 1)
	go func() {
		res, err := n.Get(bg, p, key)
		if err != nil {
			t.Error(err)
		}
		read <- res
	}()
	<-clk.parked // the Get has read v1 from the engine
	if _, err := n.Put(bg, p, key, []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	close(clk.release)
	if res := <-read; string(res.Value) != "v1" || res.CacheHit {
		t.Fatalf("the parked Get = %q (cache hit %v), want v1 from the engine", res.Value, res.CacheHit)
	}
	res, err := n.Get(bg, p, key)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v2" {
		t.Fatalf("Get after the Put = %q (cache hit %v), want v2: the read's fill overwrote the write-through", res.Value, res.CacheHit)
	}
}
