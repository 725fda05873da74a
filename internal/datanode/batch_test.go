package datanode

import (
	"errors"
	"fmt"
	"testing"

	"abase/internal/partition"
)

// The tests below drive one partition's sub-batch through the node-batch
// entry points; these run a one-group batch and return its result.

func multiGet(n *Node, p partition.ID, keys [][]byte) (BatchResult, error) {
	res := n.MultiGet(bg, []GetBatch{{PID: p, Keys: keys}})[0]
	return res, res.Err
}

func multiWrite(n *Node, p partition.ID, ops []Mutation) (BatchResult, error) {
	res := n.MultiWrite(bg, []PutBatch{{PID: p, Ops: ops}})[0]
	return res, res.Err
}

func multiContains(n *Node, p partition.ID, keys [][]byte) ([]bool, error) {
	res := n.MultiContains(bg, []GetBatch{{PID: p, Keys: keys}})[0]
	exists := make([]bool, len(res.Values))
	for i, bv := range res.Values {
		exists[i] = bv.Err == nil
	}
	return exists, res.Err
}

func TestBatchGetOrderAndPartialMisses(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	p := pid("t1", 0)
	for i := 0; i < 10; i += 2 {
		n.Put(bg, p, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)), 0)
	}
	keys := make([][]byte, 10)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
	}
	res, err := multiGet(n, p, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 10 {
		t.Fatalf("got %d values", len(res.Values))
	}
	for i, bv := range res.Values {
		if i%2 == 0 {
			if bv.Err != nil || string(bv.Value) != fmt.Sprintf("v%d", i) {
				t.Fatalf("slot %d = %q, %v", i, bv.Value, bv.Err)
			}
			if !bv.CacheHit {
				t.Fatalf("slot %d: write-through value should be a cache hit", i)
			}
		} else if !errors.Is(bv.Err, ErrNotFound) {
			t.Fatalf("slot %d: want ErrNotFound, got %v", i, bv.Err)
		}
	}
}

func TestBatchGetSingleQuotaAdmission(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	p := pid("t1", 0)
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
		n.Put(bg, p, keys[i], []byte("v"), 0)
	}
	rep, err := n.getReplica(p)
	if err != nil {
		t.Fatal(err)
	}
	before := rep.limiter.Admitted()
	if _, err := multiGet(n, p, keys); err != nil {
		t.Fatal(err)
	}
	after := rep.limiter.Admitted()
	if after-before != 1 {
		t.Fatalf("batch of 16 keys took %d quota admissions, want 1", after-before)
	}
}

func TestBatchGetThrottledAsBatch(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 0.000001, true)
	p := pid("t1", 0)
	keys := [][]byte{[]byte("a"), []byte("b")}
	if _, err := multiGet(n, p, keys); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
}

func TestBatchGetUnknownPartition(t *testing.T) {
	n := newTestNode(t, Config{})
	if _, err := multiGet(n, pid("nobody", 0), [][]byte{[]byte("k")}); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchWriteMixedOpsAndContains(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	p := pid("t1", 0)
	n.Put(bg, p, []byte("gone"), []byte("v"), 0)

	ops := []Mutation{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("gone"), Kind: MutDelete},
		{Key: []byte("b"), Value: []byte("2")},
	}
	res, err := multiWrite(n, p, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, bv := range res.Values {
		if bv.Err != nil {
			t.Fatalf("op %d: %v", i, bv.Err)
		}
	}
	if res.RU <= 0 {
		t.Fatalf("RU = %v", res.RU)
	}
	got, err := n.Get(bg, p, []byte("a"))
	if err != nil || string(got.Value) != "1" {
		t.Fatalf("a = %q, %v", got.Value, err)
	}
	if _, err := n.Get(bg, p, []byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gone still present: %v", err)
	}

	exists, err := multiContains(n, p, [][]byte{[]byte("a"), []byte("ghost"), []byte("b"), []byte("gone")})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if exists[i] != want[i] {
			t.Fatalf("exists[%d] = %v, want %v", i, exists[i], want[i])
		}
	}
}

func TestBatchWriteDeleteSemantics(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	p := pid("t1", 0)
	n.Put(bg, p, []byte("old"), []byte("v"), 0)

	res, err := multiWrite(n, p, []Mutation{
		{Key: []byte("absent"), Kind: MutDelete},  // no-op: ErrNotFound
		{Key: []byte("old"), Kind: MutDelete},     // exists: deleted
		{Key: []byte("old"), Kind: MutDelete},     // gone mid-batch: ErrNotFound
		{Key: []byte("new"), Value: []byte("1")},  // put of absent key
		{Key: []byte("new"), Kind: MutDelete},     // sees the batch's own put
		{Key: []byte("back"), Kind: MutDelete},    // absent
		{Key: []byte("back"), Value: []byte("2")}, // revived by put
	})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := []bool{true, false, true, false, false, true, false}
	for i, want := range wantErr {
		if got := errors.Is(res.Values[i].Err, ErrNotFound); got != want {
			t.Fatalf("op %d err = %v, want NotFound=%v", i, res.Values[i].Err, want)
		}
	}
	if _, err := n.Get(bg, p, []byte("new")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("new should be deleted by its own batch: %v", err)
	}
	if got, err := n.Get(bg, p, []byte("back")); err != nil || string(got.Value) != "2" {
		t.Fatalf("back = %q, %v", got.Value, err)
	}
}

func TestDeleteAbsentSingleOp(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	if _, err := n.Write(bg, pid("t1", 0), 0, Mutation{Kind: MutDelete, Key: []byte("ghost")}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete absent = %v, want ErrNotFound", err)
	}
}

func TestBatchWriteSingleQuotaAdmission(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	p := pid("t1", 0)
	ops := make([]Mutation, 16)
	for i := range ops {
		ops[i] = Mutation{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")}
	}
	rep, _ := n.getReplica(p)
	before := rep.limiter.Admitted()
	if _, err := multiWrite(n, p, ops); err != nil {
		t.Fatal(err)
	}
	after := rep.limiter.Admitted()
	if after-before != 1 {
		t.Fatalf("batch of 16 writes took %d quota admissions, want 1", after-before)
	}
}

func TestBatchEmptyInputs(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	if res, err := multiGet(n, p, nil); err != nil || len(res.Values) != 0 {
		t.Fatalf("empty MultiGet = %+v, %v", res, err)
	}
	if res, err := multiWrite(n, p, nil); err != nil || len(res.Values) != 0 {
		t.Fatalf("empty MultiWrite = %+v, %v", res, err)
	}
	if ex, err := multiContains(n, p, nil); err != nil || len(ex) != 0 {
		t.Fatalf("empty MultiContains = %v, %v", ex, err)
	}
}
