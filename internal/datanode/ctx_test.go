package datanode

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/partition"
	"abase/internal/wfq"
)

// wfqOneWorker serializes the WFQ so one slow request reliably makes
// the next one of its class wait in a queue.
func wfqOneWorker() wfq.Config {
	return wfq.Config{CPUWorkers: 1, BasicIOThreads: 1, ExtraIOThreads: -1}
}

// slowNode builds a single-replica node, partition quota ON, whose
// request queue drains one request per admitCost through a single
// worker, so a second request reliably waits in the admission queue
// behind the first.
func slowNode(t *testing.T, cost CostModel) (*Node, partition.ID) {
	t.Helper()
	return quotaNode(t, Config{Cost: cost}, 1e9)
}

func quotaNode(t *testing.T, cfg Config, quotaRU float64) (*Node, partition.ID) {
	t.Helper()
	cfg.ID, cfg.AdmitWorkers, cfg.WFQ, cfg.Replicas = "ctx-node", 1, wfqOneWorker(), 1
	n := New(cfg)
	t.Cleanup(func() { n.Close() })
	pid := partition.ID{Tenant: "t", Index: 0}
	if err := n.AddReplica(partition.ReplicaID{Partition: pid}, quotaRU, true); err != nil {
		t.Fatal(err)
	}
	return n, pid
}

// opKinds is every client-facing operation kind, as one call on one
// key. The conformance tests below hold each of them to the same
// pipeline contract: what run promises, it promises for all.
var opKinds = []struct {
	name string
	call func(ctx context.Context, n *Node, pid partition.ID, key []byte) error
}{
	{"Get", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		_, err := n.Get(ctx, pid, key)
		return err
	}},
	{"Put", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		_, err := n.Put(ctx, pid, key, []byte("v"), 0)
		return err
	}},
	// One Node.Write row per mutation kind ("Delete" and "PutWith" keep
	// the subtest names they had as methods of their own).
	{"Delete", writeKind(Mutation{Kind: MutDelete})},
	{"PutWith", writeKind(Mutation{Value: []byte("v"), PutOptions: PutOptions{Cond: CondNX}})},
	{"SetFields", writeKind(Mutation{Kind: MutSetFields, Fields: []FieldValue{{Field: "f", Value: []byte("v")}}})},
	{"DelFields", writeKind(Mutation{Kind: MutDelFields, Fields: []FieldValue{{Field: "f"}}})},
	{"SetTTL", writeKind(Mutation{Kind: MutSetTTL, PutOptions: PutOptions{TTL: time.Hour}})},
	{"ClearTTL", writeKind(Mutation{Kind: MutClearTTL})},
	{"MultiGet", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		return n.MultiGet(ctx, []GetBatch{{PID: pid, Keys: [][]byte{key}}})[0].Err
	}},
	{"MultiWrite", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		return n.MultiWrite(ctx, []PutBatch{{PID: pid, Ops: []Mutation{{Key: key, Value: []byte("v")}}}})[0].Err
	}},
	{"MultiContains", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		return n.MultiContains(ctx, []GetBatch{{PID: pid, Keys: [][]byte{key}}})[0].Err
	}},
	{"RangeScan", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		_, err := n.RangeScan(ctx, pid, ScanOptions{Start: key})
		return err
	}},
	{"TTL", func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		_, _, err := n.TTL(ctx, pid, key)
		return err
	}},
}

// writeKind is the opKinds row of one mutation kind: m on the row's key.
func writeKind(m Mutation) func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
	return func(ctx context.Context, n *Node, pid partition.ID, key []byte) error {
		mk := m // rows run concurrently
		mk.Key = key
		_, err := n.Write(ctx, pid, 0, mk)
		return err
	}
}

// ioServed sums the I/O stages the node's four WFQs have run.
func ioServed(n *Node) (total int64) {
	for _, c := range []wfq.Class{wfq.SmallRead, wfq.LargeRead, wfq.SmallWrite, wfq.LargeWrite} {
		total += n.Scheduler().Queue(c).Stats().IOServed
	}
	return total
}

// netCharged is what partition admission has billed the test tenant.
func netCharged(n *Node) float64 {
	charged, refunded := n.TenantRULedger("t")
	return charged - refunded
}

// TestPreCanceledNeverReachesEngine: a context that is already done is
// refused before admission — no op kind heats the partition, touches
// the engine, or leaves a counter or a charge behind.
func TestPreCanceledNeverReachesEngine(t *testing.T) {
	n, pid := quotaNode(t, Config{}, 1e9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, op := range opKinds {
		if err := op.call(ctx, n, pid, []byte("k")); !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", op.name, err)
		}
	}
	st := n.TenantStats("t")
	st.Tenant, st.LatencyP50, st.LatencyP99 = "", 0, 0
	if st != (TenantSnapshot{}) {
		t.Errorf("pre-canceled requests left stats behind: %+v", st)
	}
	if charged, _ := n.TenantRULedger("t"); charged != 0 || n.PartitionHeat(pid) != 0 || ioServed(n) != 0 {
		t.Errorf("pre-canceled requests were offered: charged %v, heat %v, I/O stages %d",
			charged, n.PartitionHeat(pid), ioServed(n))
	}
	if _, err := n.Get(context.Background(), pid, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("a canceled write reached the engine: Get err = %v", err)
	}
}

// gateClock is the real clock, except that a Sleep of exactly hold is
// counted and parks until release is closed: the test decides how long
// an admission slot stays busy, and reads off how many requests spent
// admit cost.
type gateClock struct {
	clock.Real
	hold    time.Duration
	sleeps  atomic.Int64
	entered chan struct{} // receives once per counted Sleep
	release chan struct{}
}

func (c *gateClock) Sleep(d time.Duration) {
	if d != c.hold {
		c.Real.Sleep(d)
		return
	}
	c.sleeps.Add(1)
	c.entered <- struct{}{}
	<-c.release
}

// TestCanceledInAdmissionQueueAborts: a request of any kind canceled
// while it waits in the admission queue resolves with the context
// error — without burning admit cost, spending quota, or running a
// stage.
func TestCanceledInAdmissionQueueAborts(t *testing.T) {
	for _, op := range opKinds {
		t.Run(op.name, func(t *testing.T) {
			// One admission slot, held by the first request parked in its
			// admit cost for as long as the test likes: the second request
			// sits in the queue while we cancel it.
			const admitCost = 30 * time.Millisecond
			clk := &gateClock{hold: admitCost, entered: make(chan struct{}, len(opKinds)), release: make(chan struct{})}
			n, pid := quotaNode(t, Config{AdmitCost: admitCost, Clock: clk}, 1e9)
			first := make(chan struct{})
			go func() {
				op.call(context.Background(), n, pid, []byte("occupy"))
				close(first)
			}()
			<-clk.entered // the first request holds the admission slot

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- op.call(ctx, n, pid, []byte("victim")) }()
			for n.admit.depth() == 0 { // until it is queued behind the first
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
			close(clk.release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("queued err = %v, want context.Canceled", err)
			}
			<-first
			// Only the occupier paid admit cost.
			if got := clk.sleeps.Load(); got != 1 {
				t.Errorf("admit cost was burned %d times, want once: the canceled request must not pay it", got)
			}
			if got := ioServed(n); got != 1 {
				t.Errorf("I/O stages run = %d, want only the occupier's", got)
			}
			if st := n.TenantStats("t"); st.Throttled != 0 || st.Success+st.Errors != 1 {
				t.Errorf("canceled request was counted: %+v", st)
			}
		})
	}
}

// TestCancelWakesSlotWaiter: a caller blocked waiting for the admission
// slot is woken by its ctx — it returns the context error while the slot
// is still held, leaves the queue, and burns no admit cost and no quota.
func TestCancelWakesSlotWaiter(t *testing.T) {
	const admitCost = 30 * time.Millisecond
	clk := &gateClock{hold: admitCost, entered: make(chan struct{}, 2), release: make(chan struct{})}
	n, pid := quotaNode(t, Config{AdmitCost: admitCost, Clock: clk}, 1e9)
	release := sync.OnceFunc(func() { close(clk.release) })
	t.Cleanup(release) // runs before the node's Close
	first := make(chan error, 1)
	go func() {
		_, err := n.Put(context.Background(), pid, []byte("occupy"), []byte("v"), 0)
		first <- err
	}()
	<-clk.entered // the first request holds the only slot

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := n.Get(ctx, pid, []byte("victim"))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); n.admit.depth() == 0; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the Get never waited for the held slot")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Get err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the canceled Get kept waiting for the held slot")
	}
	if d := n.admit.depth(); d != 0 {
		t.Errorf("admission depth after the cancel = %d, want 0", d)
	}
	// The holder is charged only after its admit cost, which is still
	// parked: anything charged now is the canceled Get's.
	if charged, _ := n.TenantRULedger("t"); charged != 0 {
		t.Errorf("the canceled Get was charged %v RU", charged)
	}
	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := clk.sleeps.Load(); got != 1 {
		t.Errorf("admit cost was burned %d times, want once (the holder's)", got)
	}
	if st := n.TenantStats("t"); st.Success != 1 || st.Errors != 0 || st.Throttled != 0 {
		t.Errorf("the canceled Get was counted: %+v", st)
	}
}

// TestCanceledMidWFQWaitAborts: a request of any kind canceled while
// queued in the WFQ — past admission, its partition quota charged —
// aborts at the dequeue point: context error, no stage run, and the
// charge returned in full.
func TestCanceledMidWFQWaitAborts(t *testing.T) {
	for _, op := range opKinds {
		t.Run(op.name, func(t *testing.T) {
			// One CPU worker per class, and a CPU stage the first request
			// stays parked in for as long as the test likes: a second
			// request of the same kind waits in the CPU-WFQ meanwhile.
			const cpuTime = 40 * time.Millisecond
			clk := &gateClock{hold: cpuTime, entered: make(chan struct{}, 2), release: make(chan struct{})}
			n, pid := quotaNode(t, Config{Cost: CostModel{CPUTime: cpuTime}, Clock: clk}, 1e9)
			release := sync.OnceFunc(func() { close(clk.release) })
			t.Cleanup(release) // runs before the node's Close
			first := make(chan struct{})
			go func() {
				op.call(context.Background(), n, pid, []byte("occupy"))
				close(first)
			}()
			<-clk.entered // the first request was charged and holds the CPU worker
			before := netCharged(n)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- op.call(ctx, n, pid, []byte("victim")) }()
			for deadline := time.Now().Add(5 * time.Second); cpuQueued(n) != 1; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("the victim never queued in the CPU-WFQ")
				}
			}
			if netCharged(n) <= before {
				t.Fatal("the victim was not charged: it never passed admission")
			}
			cancel()
			release() // the worker frees and dequeues the canceled victim
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("WFQ-queued err = %v, want context.Canceled", err)
			}
			if after := netCharged(n); after != before {
				t.Errorf("aborted request still billed: net charge %v, want %v", after, before)
			}
			<-first
			if got := ioServed(n); got != 1 {
				t.Errorf("I/O stages run = %d, want only the occupier's", got)
			}
		})
	}
}

// cpuQueued counts the tasks waiting in the node's four CPU-WFQs.
func cpuQueued(n *Node) (total int) {
	for _, c := range []wfq.Class{wfq.SmallRead, wfq.LargeRead, wfq.SmallWrite, wfq.LargeWrite} {
		total += n.Scheduler().Queue(c).Stats().CPUQueued
	}
	return total
}

// TestRefusalsConform: the three ways the pipeline turns a request away
// after arrival look the same for every op kind — an exhausted
// partition quota throttles (counted as throttled, not as an error), a
// full request queue overloads, and a closed scheduler reports
// ErrClosed with the charge returned.
func TestRefusalsConform(t *testing.T) {
	t.Run("quota exhausted", func(t *testing.T) {
		// The bucket holds 3× the quota: less than a one-byte write.
		n, pid := quotaNode(t, Config{}, 1e-9)
		for i, op := range opKinds {
			if err := op.call(bg, n, pid, []byte("k")); !errors.Is(err, ErrThrottled) {
				t.Errorf("%s err = %v, want ErrThrottled", op.name, err)
			}
			if st := n.TenantStats("t"); st.Throttled != int64(i+1) || st.Errors != 0 {
				t.Errorf("%s: throttled %d errors %d, want %d and 0", op.name, st.Throttled, st.Errors, i+1)
			}
		}
	})
	t.Run("queue full", func(t *testing.T) {
		// One admission slot, held by a request parked in its admit cost
		// until the test ends, and a queue of one: the second arrival
		// waits, the third finds no room.
		const admitCost = 150 * time.Millisecond
		clk := &gateClock{hold: admitCost, entered: make(chan struct{}, 2), release: make(chan struct{})}
		n, pid := quotaNode(t, Config{AdmitCost: admitCost, AdmitQueueCap: 1, Clock: clk}, 1e9)
		t.Cleanup(func() { close(clk.release) }) // runs before the node's Close
		go n.Put(bg, pid, []byte{0}, []byte("v"), 0)
		<-clk.entered // the first request holds the only slot
		go n.Put(bg, pid, []byte{1}, []byte("v"), 0)
		for deadline := time.Now().Add(5 * time.Second); n.admit.depth() == 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the second request never queued for the held slot")
			}
		}
		for i, op := range opKinds {
			if err := op.call(bg, n, pid, []byte("k")); !errors.Is(err, ErrOverloaded) {
				t.Errorf("%s err = %v, want ErrOverloaded", op.name, err)
			}
			if st := n.TenantStats("t"); st.Errors != int64(i+1) {
				t.Errorf("%s: errors %d, want %d", op.name, st.Errors, i+1)
			}
		}
	})
	t.Run("scheduler closed", func(t *testing.T) {
		n, pid := quotaNode(t, Config{}, 1e9)
		n.sched.Close()
		for _, op := range opKinds {
			if err := op.call(bg, n, pid, []byte("k")); !errors.Is(err, ErrClosed) {
				t.Errorf("%s err = %v, want ErrClosed", op.name, err)
			}
		}
		if charged, refunded := n.TenantRULedger("t"); charged == 0 || charged != refunded {
			t.Errorf("ledger charged %v refunded %v, want every charge returned", charged, refunded)
		}
		n.Close()
		if err := n.AddReplica(partition.ReplicaID{Partition: partition.ID{Tenant: "t", Index: 1}}, 1, true); !errors.Is(err, ErrClosed) {
			t.Errorf("AddReplica on a closed node: %v, want ErrClosed", err)
		}
	})
}

// TestDeadlineShedding: when the node's estimated wait exceeds a
// request's remaining budget, the request is refused instantly with
// ErrDeadlineShed (matching context.DeadlineExceeded) and counted.
func TestDeadlineShedding(t *testing.T) {
	n, pid := slowNode(t, CostModel{CPUTime: 5 * time.Millisecond, IOWriteTime: 5 * time.Millisecond})

	// Warm the service-time estimate with real requests (~10ms each).
	for i := 0; i < 5; i++ {
		if _, err := n.Put(context.Background(), pid, []byte{byte(i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if w := n.EstimatedWait(); w < 2*time.Millisecond {
		t.Fatalf("estimated wait %v did not warm up", w)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Get(ctx, pid, []byte{0})
	if !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("err = %v, want ErrDeadlineShed", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineShed must match context.DeadlineExceeded")
	}
	if lat := time.Since(start); lat > 2*time.Millisecond {
		t.Fatalf("shed took %v, want fail-fast", lat)
	}
	if st := n.TenantStats("t"); st.Shed != 1 {
		t.Fatalf("tenant shed = %d, want 1", st.Shed)
	}

	// The same doomed request with its deadline hidden from the node,
	// as the DeadlineShedding experiment's unshed phase sends it, is
	// admitted.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := n.Get(hiddenDeadline{ctx2}, pid, []byte{0}); errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("shed with its deadline hidden: %v", err)
	}
	if st := n.TenantStats("t"); st.Shed != 1 {
		t.Fatalf("shed count moved with the deadline hidden: %d", st.Shed)
	}
}

// hiddenDeadline is a context that ends at its parent's deadline but
// reports none, so admission has no budget to shed on.
type hiddenDeadline struct{ context.Context }

func (hiddenDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }

// TestPutWithConditionalSemantics covers the NX/XX/KEEPTTL/GET matrix
// at the data plane: one read-modify-write through the write pipeline.
func TestPutWithConditionalSemantics(t *testing.T) {
	n, pid := quotaNode(t, Config{}, 1e9)
	bg := context.Background()
	key := []byte("cond")

	// NX on an absent key writes.
	res, err := n.Write(bg, pid, 0, Mutation{Key: key, Value: []byte("v1"), PutOptions: PutOptions{Cond: CondNX, ReturnOld: true}})
	if err != nil || !res.Written || res.OldExists || res.Old != nil {
		t.Fatalf("NX absent: res=%+v err=%v", res, err)
	}
	// NX on an existing key refuses, reporting the old value under GET.
	res, err = n.Write(bg, pid, 0, Mutation{Key: key, Value: []byte("v2"), PutOptions: PutOptions{Cond: CondNX, ReturnOld: true}})
	if err != nil || res.Written || !res.OldExists || string(res.Old) != "v1" {
		t.Fatalf("NX existing: res=%+v err=%v", res, err)
	}
	if got, _ := n.Get(bg, pid, key); string(got.Value) != "v1" {
		t.Fatalf("NX overwrote: %q", got.Value)
	}
	// XX on an existing key writes.
	res, err = n.Write(bg, pid, 0, Mutation{Key: key, Value: []byte("v3"), PutOptions: PutOptions{Cond: CondXX}})
	if err != nil || !res.Written {
		t.Fatalf("XX existing: res=%+v err=%v", res, err)
	}
	// XX on an absent key refuses.
	res, err = n.Write(bg, pid, 0, Mutation{Key: []byte("ghost"), Value: []byte("v"), PutOptions: PutOptions{Cond: CondXX}})
	if err != nil || res.Written || res.OldExists {
		t.Fatalf("XX absent: res=%+v err=%v", res, err)
	}
	if _, err := n.Get(bg, pid, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("XX absent wrote anyway: %v", err)
	}

	// KEEPTTL preserves the remaining expiry across an overwrite.
	if _, err := n.Put(bg, pid, key, []byte("v4"), time.Hour); err != nil {
		t.Fatal(err)
	}
	res, err = n.Write(bg, pid, 0, Mutation{Key: key, Value: []byte("v5"), PutOptions: PutOptions{KeepTTL: true}})
	if err != nil || !res.Written || !res.Expiring {
		t.Fatalf("KEEPTTL: res=%+v err=%v", res, err)
	}
	ttl, has, err := n.TTL(bg, pid, key)
	if err != nil || !has || ttl <= 50*time.Minute || ttl > time.Hour {
		t.Fatalf("KEEPTTL remaining = %v (has=%v err=%v), want ~1h", ttl, has, err)
	}
	// A plain conditional write without KEEPTTL clears the expiry.
	if _, err := n.Write(bg, pid, 0, Mutation{Key: key, Value: []byte("v6"), PutOptions: PutOptions{Cond: CondXX}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.TTL(bg, pid, key); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(bg, pid, key)
	if err != nil || got.ExpireAt != 0 {
		t.Fatalf("plain conditional put kept expiry: %+v err=%v", got, err)
	}
}
