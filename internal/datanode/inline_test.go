package datanode

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/lavastore"
)

// goid is the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	var buf [32]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// callerClock is the real clock, except that Sleep returns at once and
// counts the simulated costs burned, and how many of them were burned on
// a goroutine other than caller.
type callerClock struct {
	clock.Real
	caller           string
	burns, elsewhere atomic.Int64
}

func (c *callerClock) Sleep(time.Duration) {
	c.burns.Add(1)
	if goid() != c.caller {
		c.elsewhere.Add(1)
	}
}

// pointOps runs 1,000 rounds of a Put, a Get of the key it wrote and a
// Get of an absent key against n's replica of partition t1/0.
func pointOps(t *testing.T, n *Node) {
	t.Helper()
	p := pid("t1", 0)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("k%d", i%50))
		if _, err := n.Put(bg, p, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Get(bg, p, key); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Get(bg, p, []byte(fmt.Sprintf("absent%d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of an absent key: %v, want ErrNotFound", err)
		}
	}
}

// pointOpsBurns is how many costs pointOps burns when every cost is set:
// a Put burns admit, CPU and write cost; a Get the node cache answers
// (the Put wrote through to it) admit and CPU cost; a Get of an absent
// key admit, CPU and read cost.
const pointOpsBurns = 1000 * (3 + 2 + 3)

// TestZeroCostBurnsNothing: the zero CostModel and AdmitCost simulate
// no service time, so a node built without them never sleeps, while 1µs
// costs sleep once per cost a request incurs.
func TestZeroCostBurnsNothing(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name   string
		cfg    Config
		sleeps int64
	}{
		{"zero", Config{}, 0},
		{"1µs", Config{Cost: CostModel{CPUTime: us, IOReadTime: us, IOWriteTime: us}, AdmitCost: us}, pointOpsBurns},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &callerClock{caller: goid()}
			tc.cfg.Clock = clk
			n := newTestNode(t, tc.cfg)
			if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
				t.Fatal(err)
			}
			pointOps(t, n)
			if got := clk.burns.Load(); got != tc.sleeps {
				t.Errorf("%d sleeps over 3,000 point ops, want %d", got, tc.sleeps)
			}
		})
	}
}

// TestPointOpsRunOnTheirCaller: on an idle node a point op takes every
// step on its caller's goroutine — the admission step and every WFQ
// stage — and a request that finds the admission slot taken waits for
// it.
func TestPointOpsRunOnTheirCaller(t *testing.T) {
	t.Run("idle node", func(t *testing.T) {
		// Every simulated cost sits at burn's 1µs floor, so each step
		// reports the goroutine it ran on.
		const us = time.Microsecond
		clk := &callerClock{caller: goid()}
		n := newTestNode(t, Config{Cost: CostModel{CPUTime: us, IOReadTime: us, IOWriteTime: us}, AdmitCost: us, Clock: clk})
		if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
			t.Fatal(err)
		}
		pointOps(t, n)
		if burns := clk.burns.Load(); burns != pointOpsBurns {
			t.Fatalf("%d costs burned by 3,000 point ops, want %d", burns, pointOpsBurns)
		}
		if got := clk.elsewhere.Load(); got != 0 {
			t.Errorf("%d of %d steps of sequential point ops on an idle node ran off their caller's goroutine, want 0", got, clk.burns.Load())
		}
	})
	t.Run("admission slot held", func(t *testing.T) {
		// One admission slot, parked in the first request's admit cost:
		// the second request must wait for it.
		const admitCost = 30 * time.Millisecond
		clk := &gateClock{hold: admitCost, entered: make(chan struct{}, 2), release: make(chan struct{})}
		n, p := quotaNode(t, Config{AdmitCost: admitCost, Clock: clk}, 1e9)
		errs := make(chan error, 2)
		go func() {
			_, err := n.Put(bg, p, []byte("first"), []byte("v"), 0)
			errs <- err
		}()
		<-clk.entered // the first request holds the only slot
		go func() {
			_, err := n.Get(bg, p, []byte("first"))
			errs <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); n.admit.depth() == 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the second request never queued behind the held slot")
			}
		}
		if d := n.admit.depth(); d != 1 {
			t.Errorf("admission depth = %d, want 1", d)
		}
		close(clk.release)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("request %d: %v", i, err)
			}
		}
	})
}

// TestQueuedRequestGoesFirst: a caller waiting for an admission slot
// gets the next one freed; a caller arriving after the slot frees waits
// behind it.
func TestQueuedRequestGoesFirst(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.enter(bg); err != nil {
		t.Fatalf("enter on an idle queue: %v", err)
	}
	order := make(chan string, 2)
	arrive := func(name string) {
		go func() {
			if a.enter(bg) == nil {
				order <- name
				a.leave()
			}
		}()
	}
	arrive("waiting")
	for deadline := time.Now().Add(5 * time.Second); a.depth() == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second caller never waited for the held slot")
		}
	}
	a.leave()
	arrive("late")
	if got := <-order; got != "waiting" {
		t.Errorf("the %s caller took the freed slot ahead of the one waiting for it", got)
	}
	<-order
}

// TestCloseWaitsForInlineRuns races Node.Close against Puts that run on
// their callers (run it under -race): a write's stages either finish
// before the engines close or never start; none reaches a closed engine.
// The I/O stage sleeps before it commits, so a Close that did not wait
// for it would close the engine under it; there are no more writers
// than basic I/O slots, so no queued stage keeps the workers — and the
// engines — alive for them.
func TestCloseWaitsForInlineRuns(t *testing.T) {
	cost := CostModel{IOWriteTime: 200 * time.Microsecond}
	for round := 0; round < 20; round++ {
		n := New(Config{ID: "close-race", Cost: cost})
		if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
			t.Fatal(err)
		}
		p := pid("t1", 0)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ { // the default BasicIOThreads
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := n.Put(bg, p, []byte(fmt.Sprintf("g%d-%d", g, i%64)), []byte("v"), 0)
					if errors.Is(err, lavastore.ErrClosed) {
						t.Errorf("round %d: a Put reached a closed engine: %v", round, err)
					}
					if err != nil {
						return // the node is closing: refused before any stage
					}
				}
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); n.TenantStats("t1").Success < 20; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the writers made no progress")
			}
		}
		n.Close()
		wg.Wait()
	}
}

// waitGoroutines polls until no more than base goroutines run, failing
// with every stack once the bound passes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines: Node.Close and Fabric.Close stop every
// goroutine they started — WFQ workers, Rule 4 extra threads, fabric
// lanes — after traffic that used them.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	f, primary, followers, p := fabricTrio(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ { // concurrent callers, so requests queue too
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("g%d-%d", g, i))
				if _, err := primary.Put(bg, p, key, []byte("v"), 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := primary.Get(bg, p, key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	f.Flush()
	primary.Close()
	for _, n := range followers {
		n.Close()
	}
	f.Close()
	waitGoroutines(t, base)
}
