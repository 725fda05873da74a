package abase

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/lavastore"
	"abase/internal/partition"
)

// replicasAgree checks, once replication has drained, that every member
// of each of tenant's routes holds the same live records as the route's
// primary: the same keys, values, sequences and deadlines.
func replicasAgree(t *testing.T, c *Cluster, tenant string) {
	t.Helper()
	c.Meta.FlushReplication()
	view, err := c.Meta.RoutingView(tenant)
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		value    string
		seq      uint64
		expireAt int64
	}
	for _, route := range view.Partitions {
		var want map[string]record
		for _, id := range append([]string{route.Primary}, route.Followers...) {
			n, err := view.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]record{}
			if err := n.ScanReplica(route.Partition, func(e lavastore.ScanEntry) bool {
				got[string(e.Key)] = record{string(e.Value), e.Seq, e.ExpireAt}
				return true
			}); err != nil {
				t.Fatalf("scan %s on %s: %v", route.Partition, id, err)
			}
			if want == nil {
				want = got
				continue
			}
			for k, g := range got {
				if _, ok := want[k]; !ok {
					t.Errorf("%s key %q: %s holds %+v, primary %s holds nothing", route.Partition, k, id, g, route.Primary)
				}
			}
			for k, w := range want {
				if g, ok := got[k]; !ok || g != w {
					t.Errorf("%s key %q: %s holds %+v (present %v), primary %s holds %+v", route.Partition, k, id, g, ok, route.Primary, w)
				}
			}
		}
	}
}

// heldReplication stands in for the replication fabric on every node of
// a cluster. While hold is set it keeps each message; otherwise, and on
// release, it applies the message on every other node hosting the
// partition, at the primary's positions, as the fabric would.
type heldReplication struct {
	c    *Cluster
	mu   sync.Mutex
	hold bool
	msgs []heldMessage
	err  error
}

type heldMessage struct {
	from *datanode.Node
	pid  partition.ID
	ops  []datanode.WriteOp
	pos  uint64
}

// install makes h the Replicator of every node the cluster has now.
func (h *heldReplication) install() {
	for _, n := range h.c.Nodes() {
		n.SetReplicator(heldFrom{h, n})
	}
}

// release applies the held messages in order and stops holding.
func (h *heldReplication) release() {
	h.mu.Lock()
	msgs := h.msgs
	h.msgs, h.hold = nil, false
	h.mu.Unlock()
	for _, m := range msgs {
		h.deliver(m)
	}
}

func (h *heldReplication) deliver(m heldMessage) {
	for _, n := range h.c.Nodes() {
		if n == m.from || !n.HostsReplica(m.pid) {
			continue
		}
		if err := n.ApplyReplicated(m.pid, m.pos, m.ops...); err != nil {
			h.mu.Lock()
			h.err = err
			h.mu.Unlock()
		}
	}
}

// heldFrom is one node's view of the held replication.
type heldFrom struct {
	h    *heldReplication
	from *datanode.Node
}

func (r heldFrom) Replicate(rid partition.ReplicaID, _ []datanode.Peer, ops []datanode.WriteOp, pos uint64, pin lavastore.Pin) {
	m := heldMessage{from: r.from, pid: rid.Partition, pos: pos}
	for _, op := range ops {
		op.Key, op.Value = bytes.Clone(op.Key), bytes.Clone(op.Value)
		m.ops = append(m.ops, op)
	}
	pin.Release()
	r.h.mu.Lock()
	hold := r.h.hold
	if hold {
		r.h.msgs = append(r.h.msgs, m)
	}
	r.h.mu.Unlock()
	if !hold {
		r.h.deliver(m)
	}
}

// TestReplicasStoreThePrimarysDeadline: a TTL becomes a deadline once,
// on the primary, at the request's arrival. A follower that applies the
// write a second later, a repair copy and a split destination all hold
// exactly that deadline — also after SET KEEPTTL and HSET rewrite the
// record.
func TestReplicasStoreThePrimarysDeadline(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	c, cl := scanTenant(t, ClusterConfig{Nodes: 3, Clock: sim},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 2, Proxies: 1})
	h := &heldReplication{c: c}
	h.install()
	deadline := sim.Now().Unix() + 3600
	// expireAt reads key's deadline on the primary of its partition.
	expireAt := func(key string) int64 {
		t.Helper()
		route, err := c.Meta.RouteFor("app", []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Meta.Node(route.Primary)
		if err != nil {
			t.Fatal(err)
		}
		at := int64(-1)
		n.ScanReplica(route.Partition, func(e lavastore.ScanEntry) bool {
			if string(e.Key) == key {
				at = e.ExpireAt
			}
			return true
		})
		return at
	}
	// Each step runs a second after the one before, so the EXPIRE,
	// issued 3 s in, sets the same deadline as the SET EX.
	for _, step := range []struct {
		name  string
		key   string // whose deadline the step must leave at deadline ("": none yet)
		write func() error
	}{
		{"SET EX", "s", func() error { return cl.Set(bg, []byte("s"), []byte("v1"), WithTTL(time.Hour)) }},
		{"SET KEEPTTL", "s", func() error { return cl.Set(bg, []byte("s"), []byte("v2"), KeepTTL()) }},
		{"HSET", "", func() error { _, err := cl.HSet(bg, []byte("h"), "f1", []byte("v")); return err }},
		{"EXPIRE", "h", func() error { return cl.Expire(bg, []byte("h"), time.Hour-3*time.Second) }},
		{"HSET on a TTL'd hash", "h", func() error { _, err := cl.HSet(bg, []byte("h"), "f2", []byte("v")); return err }},
	} {
		h.mu.Lock()
		h.hold = true
		h.mu.Unlock()
		if err := step.write(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		// Followers apply a second after the primary committed.
		sim.Advance(time.Second)
		h.release()
		if h.err != nil {
			t.Fatalf("%s: follower apply: %v", step.name, h.err)
		}
		replicasAgree(t, c, "app")
		if step.key != "" {
			if got := expireAt(step.key); got != deadline {
				t.Errorf("after %s the primary holds %s until %d, want %d", step.name, step.key, got, deadline)
			}
		}
	}

	// Keys enough that the split below moves some of them.
	moved := 0
	for i := 0; i < 16; i++ {
		k := []byte(fmt.Sprintf("m:%02d", i))
		if err := cl.Set(bg, k, []byte("v"), WithTTL(time.Hour-5*time.Second)); err != nil {
			t.Fatal(err)
		}
		if partition.PartitionOf(k, 4) != partition.PartitionOf(k, 2) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the split would move none of the keys")
	}

	// A repair copies every replica of the removed node onto a new one.
	sim.Advance(time.Second)
	n, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	n.SetReplicator(heldFrom{h, n})
	if err := c.RemoveNode(c.Nodes()[0].ID()); err != nil {
		t.Fatal(err)
	}
	view, err := c.Meta.RoutingView("app")
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	for _, route := range view.Partitions {
		if slices.Contains(append(route.Followers, route.Primary), n.ID()) {
			hosts++
		}
	}
	if hosts == 0 {
		t.Fatal("the repair placed no replica on the new node")
	}
	replicasAgree(t, c, "app")

	// A split moves about half the keys through WriteThrough.
	sim.Advance(time.Second)
	if err := c.Meta.SplitTenantPartitions("app"); err != nil {
		t.Fatal(err)
	}
	replicasAgree(t, c, "app")
	for _, k := range []string{"s", "h", "m:00", "m:01", "m:02", "m:03", "m:04", "m:05", "m:06", "m:07", "m:08", "m:09", "m:10", "m:11", "m:12", "m:13", "m:14", "m:15"} {
		if got := expireAt(k); got != deadline {
			t.Errorf("after the repair and the split the primary holds %s until %d, want %d", k, got, deadline)
		}
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
}
