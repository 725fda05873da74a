package datanode

import (
	"errors"
	"testing"

	"abase/internal/partition"
)

func fenceNode(t *testing.T) *Node {
	t.Helper()
	n := New(Config{ID: "fence-node"})
	t.Cleanup(func() { n.Close() })
	return n
}

func TestNodeDownFailsFast(t *testing.T) {
	n := fenceNode(t)
	pid := partition.ID{Tenant: "t", Index: 0}
	if err := n.AddReplica(partition.ReplicaID{Partition: pid}, 1e9, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, pid, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	n.SetDown(true)
	if n.Alive() {
		t.Fatal("Alive() after SetDown(true)")
	}
	if _, err := n.Get(bg, pid, []byte("k")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on down node: %v", err)
	}
	if _, err := n.Put(bg, pid, []byte("k"), []byte("v"), 0); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put on down node: %v", err)
	}
	if err := n.ApplyReplicated(pid, 0, WriteOp{Key: []byte("k"), Value: []byte("v")}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ApplyReplicated on down node: %v", err)
	}
	if res := n.MultiGet(bg, []GetBatch{{PID: pid, Keys: [][]byte{[]byte("k")}}}); !errors.Is(res[0].Err, ErrNodeDown) {
		t.Fatalf("MultiGet on down node: %v", res[0].Err)
	}
	n.SetDown(false)
	if _, err := n.Get(bg, pid, []byte("k")); err != nil {
		t.Fatalf("Get after revival: %v", err)
	}
}

func TestWriteFencing(t *testing.T) {
	n := fenceNode(t)
	pid := partition.ID{Tenant: "t", Index: 0}
	// A follower replica must reject client writes outright.
	if err := n.AddReplica(partition.ReplicaID{Partition: pid}, 1e9, false); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, pid, []byte("k"), []byte("v"), 0); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("write at follower: %v", err)
	}
	// Replication applies bypass the fence (they ARE the follower path).
	if err := n.ApplyReplicated(pid, 0, WriteOp{Key: []byte("k"), Value: []byte("v")}); err != nil {
		t.Fatalf("ApplyReplicated at follower: %v", err)
	}
	// Promote under epoch 5: plain and matching-epoch writes work,
	// mismatched epochs are fenced in both directions.
	if err := n.SetRoute(pid, true, 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.PutAt(bg, pid, 5, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatalf("matching-epoch write: %v", err)
	}
	if _, err := n.PutAt(bg, pid, 4, []byte("k"), []byte("v"), 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale-epoch write: %v", err)
	}
	if _, err := n.PutAt(bg, pid, 6, []byte("k"), []byte("v"), 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("future-epoch write: %v", err)
	}
	// Role changes never move the epoch backwards.
	if err := n.SetRoute(pid, false, 4, nil); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("backwards role change: %v", err)
	}
	// Batch writes share the fence.
	res := n.MultiWrite(bg, []PutBatch{{PID: pid, Ops: []Mutation{{Key: []byte("k"), Value: []byte("v")}}, Epoch: 3}})
	if !errors.Is(res[0].Err, ErrStaleEpoch) {
		t.Fatalf("stale-epoch batch write: %v", res[0].Err)
	}
}

func TestReplicationPositionTracksApplies(t *testing.T) {
	n := fenceNode(t)
	pid := partition.ID{Tenant: "t", Index: 0}
	if err := n.AddReplica(partition.ReplicaID{Partition: pid}, 1e9, true); err != nil {
		t.Fatal(err)
	}
	if got := n.ReplicationPosition(pid); got != 0 {
		t.Fatalf("initial position = %d", got)
	}
	n.Put(bg, pid, []byte("a"), []byte("1"), 0)
	n.ApplyReplicated(pid, 0, WriteOp{Key: []byte("b"), Value: []byte("2")})
	n.ApplyReplicated(pid, 0, WriteOp{Key: []byte("c"), Value: []byte("3")}, WriteOp{Key: []byte("d"), Delete: true})
	if got := n.ReplicationPosition(pid); got != 4 {
		t.Fatalf("position = %d, want 4", got)
	}
}
