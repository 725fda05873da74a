package datanode

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"abase/internal/hashfield"
	"abase/internal/lavastore"
	"abase/internal/partition"
)

// The spellings the tests use for the keyed writes: each is one
// Node.Write, and a hash read is a Get the caller decodes.

func del(n *Node, p partition.ID, key []byte) (PutResult, error) {
	return n.Write(bg, p, 0, Mutation{Kind: MutDelete, Key: key})
}

func hSetMulti(n *Node, p partition.ID, key []byte, fvs []FieldValue) (int, error) {
	res, err := n.Write(bg, p, 0, Mutation{Kind: MutSetFields, Key: key, Fields: fvs})
	return res.Count, err
}

func hSet(n *Node, p partition.ID, key []byte, field string, value []byte) (int, error) {
	return hSetMulti(n, p, key, []FieldValue{{Field: field, Value: value}})
}

func hDel(n *Node, p partition.ID, key []byte, fields ...string) (int, error) {
	fvs := make([]FieldValue, len(fields))
	for i, f := range fields {
		fvs[i].Field = f
	}
	res, err := n.Write(bg, p, 0, Mutation{Kind: MutDelFields, Key: key, Fields: fvs})
	return res.Count, err
}

func hGetAll(n *Node, p partition.ID, key []byte) (map[string][]byte, error) {
	res, err := n.Get(bg, p, key)
	if errors.Is(err, ErrNotFound) {
		return map[string][]byte{}, nil
	}
	if err != nil {
		return nil, err
	}
	return hashfield.Decode(res.Value)
}

func hLen(n *Node, p partition.ID, key []byte) (int, error) {
	m, err := hGetAll(n, p, key)
	return len(m), err
}

func hGet(n *Node, p partition.ID, key []byte, field string) ([]byte, error) {
	m, err := hGetAll(n, p, key)
	if v, ok := m[field]; ok || err != nil {
		return v, err
	}
	return nil, ErrNotFound
}

func setTTL(n *Node, p partition.ID, key []byte, ttl time.Duration) (PutResult, error) {
	return n.Write(bg, p, 0, Mutation{Kind: MutSetTTL, Key: key, PutOptions: PutOptions{TTL: ttl}})
}

func clearTTL(n *Node, p partition.ID, key []byte) (PutResult, error) {
	return n.Write(bg, p, 0, Mutation{Kind: MutClearTTL, Key: key})
}

// recorder is a Replicator that keeps every forwarded message.
type recorder struct {
	mu   sync.Mutex
	msgs [][]WriteOp
	pos  []uint64
}

func (r *recorder) Replicate(_ partition.ReplicaID, _ []Peer, ops []WriteOp, pos uint64, pin lavastore.Pin) {
	r.mu.Lock()
	defer r.mu.Unlock()
	msg := make([]WriteOp, len(ops))
	for i, op := range ops {
		op.Key, op.Value = bytes.Clone(op.Key), bytes.Clone(op.Value)
		msg[i] = op
	}
	pin.Release()
	r.msgs = append(r.msgs, msg)
	r.pos = append(r.pos, pos)
}

// TestConcurrentFieldWritesKeepEveryAckedField: a field mutation reads,
// decides and writes inside one I/O stage, so W writers setting distinct
// fields of one hash lose nothing (the two-pipeline form kept 86–158 of
// 400).
func TestConcurrentFieldWritesKeepEveryAckedField(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p, key := pid("t1", 0), []byte("h")
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if added, err := hSet(n, p, key, fmt.Sprintf("w%d-f%d", w, i), []byte("v")); err != nil || added != 1 {
					t.Errorf("HSET w%d-f%d = %d, %v", w, i, added, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, err := hLen(n, p, key); err != nil || got != writers*each {
		t.Fatalf("hash kept %d of %d acknowledged fields (%v)", got, writers*each, err)
	}
}

// TestTTLMutationsNeverOverwriteAConcurrentPut: EXPIRE and PERSIST
// rewrite the record they read inside the same I/O stage, so whichever
// order they take with a racing SET, the SET's value is what remains.
func TestTTLMutationsNeverOverwriteAConcurrentPut(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p := pid("t1", 0)
	for round := 0; round < 200; round++ {
		key := []byte(fmt.Sprintf("k%d", round))
		if _, err := n.Put(bg, p, key, []byte("old"), time.Hour); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if round%2 == 0 {
				setTTL(n, p, key, time.Minute)
			} else {
				clearTTL(n, p, key)
			}
		}()
		go func() {
			defer wg.Done()
			n.Put(bg, p, key, []byte("new"), time.Hour)
		}()
		wg.Wait()
		if got, err := n.Get(bg, p, key); err != nil || string(got.Value) != "new" {
			t.Fatalf("round %d: an acknowledged SET was overwritten: %q, %v", round, got.Value, err)
		}
	}
}

// TestWriteIsOneRun: every mutation kind is one admission, one quota
// charge and one counted request — and obeys the stale-epoch fence.
func TestWriteIsOneRun(t *testing.T) {
	n, p := quotaNode(t, Config{}, 1e9)
	if err := n.SetRoute(p, true, 7, nil); err != nil {
		t.Fatal(err)
	}
	rep, _ := n.getReplica(p)
	n.Put(bg, p, []byte("plain"), []byte("v"), time.Hour)
	hSet(n, p, []byte("hash"), "f", []byte("v"))
	for _, m := range []Mutation{
		{Kind: MutSetFields, Key: []byte("hash"), Fields: []FieldValue{{Field: "g", Value: []byte("v")}}},
		{Kind: MutDelFields, Key: []byte("hash"), Fields: []FieldValue{{Field: "g"}}},
		{Kind: MutSetTTL, Key: []byte("plain"), PutOptions: PutOptions{TTL: time.Minute}},
		{Kind: MutClearTTL, Key: []byte("plain")},
		{Kind: MutDelete, Key: []byte("plain")},
	} {
		admitted := rep.limiter.Admitted()
		before := n.TenantStats("t")
		if _, err := n.Write(bg, p, 8, m); !errors.Is(err, ErrStaleEpoch) {
			t.Errorf("kind %d at a stale epoch: %v, want ErrStaleEpoch", m.Kind, err)
		}
		res, err := n.Write(bg, p, 7, m)
		if err != nil || !res.Written || res.Count != 1 {
			t.Errorf("kind %d = %+v, %v", m.Kind, res, err)
		}
		after := n.TenantStats("t")
		if now := rep.limiter.Admitted(); now-admitted != 1 || after.Success-before.Success != 1 || after.Errors != before.Errors {
			t.Errorf("kind %d: %d quota charges, success +%d, errors +%d; want one request",
				m.Kind, now-admitted, after.Success-before.Success, after.Errors-before.Errors)
		}
		if res.RU <= 0 || after.RUUsed-before.RUUsed != res.RU {
			t.Errorf("kind %d billed %v, tenant books moved %v", m.Kind, res.RU, after.RUUsed-before.RUUsed)
		}
	}
}

// TestMutationKindsSemantics is the decision table of the one write op:
// each kind against an absent key, a persistent one and an expiring one
// → verdict, count, what is stored and the resulting TTL — and what each
// leaves in the SA-LRU (write-through, except that TTL-bearing values
// are never cached) and hands the replication fabric (exactly the
// committed op, at the engine's sequence).
func TestMutationKindsSemantics(t *testing.T) {
	h := func(kv ...string) []byte {
		m := map[string][]byte{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = []byte(kv[i+1])
		}
		return hashfield.Encode(m)
	}
	f := func(kv ...string) (fvs []FieldValue) {
		for i := 0; i < len(kv); i += 2 {
			fvs = append(fvs, FieldValue{Field: kv[i], Value: []byte(kv[i+1])})
		}
		return fvs
	}
	type state struct {
		value []byte // nil: absent
		ttl   bool
	}
	absent, gone := state{}, state{}
	for _, tc := range []struct {
		name    string
		seed    state
		m       Mutation
		err     error
		written bool
		count   int
		want    state
		oldSeen bool // OldExists
	}{
		{"put absent", absent, Mutation{Value: []byte("v")}, nil, true, 1, state{[]byte("v"), false}, false},
		{"put clears ttl", state{[]byte("o"), true}, Mutation{Value: []byte("v")}, nil, true, 1, state{[]byte("v"), false}, false},
		{"put NX absent", absent, Mutation{Value: []byte("v"), PutOptions: PutOptions{Cond: CondNX}}, nil, true, 1, state{[]byte("v"), false}, false},
		{"put NX exists", state{[]byte("o"), false}, Mutation{Value: []byte("v"), PutOptions: PutOptions{Cond: CondNX}}, nil, false, 0, state{[]byte("o"), false}, true},
		{"put XX absent", absent, Mutation{Value: []byte("v"), PutOptions: PutOptions{Cond: CondXX}}, nil, false, 0, gone, false},
		{"put XX exists", state{[]byte("o"), true}, Mutation{Value: []byte("v"), PutOptions: PutOptions{Cond: CondXX}}, nil, true, 1, state{[]byte("v"), false}, true},
		{"put KEEPTTL expiring", state{[]byte("o"), true}, Mutation{Value: []byte("v"), PutOptions: PutOptions{KeepTTL: true}}, nil, true, 1, state{[]byte("v"), true}, true},
		{"put KEEPTTL persistent", state{[]byte("o"), false}, Mutation{Value: []byte("v"), PutOptions: PutOptions{KeepTTL: true}}, nil, true, 1, state{[]byte("v"), false}, true},
		{"delete absent", absent, Mutation{Kind: MutDelete}, ErrNotFound, false, 0, gone, false},
		{"delete exists", state{[]byte("o"), true}, Mutation{Kind: MutDelete}, nil, true, 1, gone, true},
		{"set-fields absent", absent, Mutation{Kind: MutSetFields, Fields: f("a", "1", "a", "2", "b", "3")}, nil, true, 2, state{h("a", "2", "b", "3"), false}, false},
		{"set-fields keeps ttl", state{h("a", "1"), true}, Mutation{Kind: MutSetFields, Fields: f("a", "9", "b", "2")}, nil, true, 1, state{h("a", "9", "b", "2"), true}, true},
		{"set-fields overwrite only", state{h("a", "1"), false}, Mutation{Kind: MutSetFields, Fields: f("a", "9")}, nil, true, 0, state{h("a", "9"), false}, true},
		{"set-fields on a string", state{[]byte("plain string"), false}, Mutation{Kind: MutSetFields, Fields: f("a", "1")}, hashfield.ErrNotHash, false, 0, state{[]byte("plain string"), false}, true},
		{"del-fields absent", absent, Mutation{Kind: MutDelFields, Fields: f("a", "")}, nil, false, 0, gone, false},
		{"del-fields no such field", state{h("a", "1"), true}, Mutation{Kind: MutDelFields, Fields: f("z", "")}, nil, false, 0, state{h("a", "1"), true}, true},
		{"del-fields keeps ttl", state{h("a", "1", "b", "2"), true}, Mutation{Kind: MutDelFields, Fields: f("a", "", "a", "", "z", "")}, nil, true, 1, state{h("b", "2"), true}, true},
		{"del-fields last field", state{h("a", "1"), true}, Mutation{Kind: MutDelFields, Fields: f("a", "")}, nil, true, 1, gone, true},
		{"set-ttl absent", absent, Mutation{Kind: MutSetTTL, PutOptions: PutOptions{TTL: time.Minute}}, ErrNotFound, false, 0, gone, false},
		{"set-ttl persistent", state{[]byte("o"), false}, Mutation{Kind: MutSetTTL, PutOptions: PutOptions{TTL: time.Minute}}, nil, true, 1, state{[]byte("o"), true}, true},
		{"clear-ttl absent", absent, Mutation{Kind: MutClearTTL}, ErrNotFound, false, 0, gone, false},
		{"clear-ttl expiring", state{[]byte("o"), true}, Mutation{Kind: MutClearTTL}, nil, true, 1, state{[]byte("o"), false}, true},
		{"clear-ttl persistent", state{[]byte("o"), false}, Mutation{Kind: MutClearTTL}, nil, false, 0, state{[]byte("o"), false}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t, Config{})
			n.AddReplica(rid("t1", 0, 0), 1e9, true)
			p, key := pid("t1", 0), []byte("k")
			if tc.seed.value != nil {
				ttl := time.Duration(0)
				if tc.seed.ttl {
					ttl = time.Hour
				}
				if _, err := n.Put(bg, p, key, tc.seed.value, ttl); err != nil {
					t.Fatal(err)
				}
			}
			rec := &recorder{}
			n.SetReplicator(rec)
			posBefore := n.ReplicationPosition(p)

			tc.m.Key = key
			res, err := n.Write(bg, p, 0, tc.m)
			if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if res.Written != tc.written || res.Count != tc.count || res.OldExists != tc.oldSeen || res.Expiring != (tc.written && tc.want.ttl) {
				t.Errorf("res = %+v; want written %v count %d oldExists %v expiring %v", res, tc.written, tc.count, tc.oldSeen, tc.written && tc.want.ttl)
			}

			// A read through the SA-LRU sees what the engine stores, and
			// only a persistent value is ever served from the cache.
			got, gerr := n.Get(bg, p, key)
			switch {
			case tc.want.value == nil:
				if !errors.Is(gerr, ErrNotFound) {
					t.Errorf("Get = %q, %v; want absent", got.Value, gerr)
				}
			case gerr != nil || !bytes.Equal(got.Value, tc.want.value) || (got.ExpireAt != 0) != tc.want.ttl:
				t.Errorf("Get = %q expireAt %d, %v; want %q ttl %v", got.Value, got.ExpireAt, gerr, tc.want.value, tc.want.ttl)
			case got.CacheHit == tc.want.ttl:
				t.Errorf("Get hit the SA-LRU = %v for a value with ttl %v", got.CacheHit, tc.want.ttl)
			}

			// One forward message per committed op, carrying exactly what
			// the engine committed, at the engine's sequence.
			pos := n.ReplicationPosition(p)
			if !tc.written {
				if len(rec.msgs) != 0 || pos != posBefore {
					t.Errorf("nothing written, yet %d messages forwarded and position %d → %d", len(rec.msgs), posBefore, pos)
				}
				return
			}
			if len(rec.msgs) != 1 || len(rec.msgs[0]) != 1 || rec.pos[0] != pos || pos != posBefore+1 {
				t.Fatalf("forwarded %v at %v; position %d → %d; want one op at the new position", rec.msgs, rec.pos, posBefore, pos)
			}
			op := rec.msgs[0][0]
			if op.Delete != (tc.want.value == nil) || !bytes.Equal(op.Value, tc.want.value) || (op.ExpireAt != 0) != tc.want.ttl {
				t.Errorf("forwarded %+v, want value %q ttl %v", op, tc.want.value, tc.want.ttl)
			}
		})
	}
}

// TestMixedBatchAppliesInOrder: the mutations of one sub-batch see each
// other in order through the overlay — including kinds that need the
// record an earlier mutation of the same batch wrote — each with its own
// error slot, and commit as one group: one forward message, contiguous
// sequences.
func TestMixedBatchAppliesInOrder(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p := pid("t1", 0)
	n.Put(bg, p, []byte("str"), []byte("plain string"), 0)
	rec := &recorder{}
	n.SetReplicator(rec)
	posBefore := n.ReplicationPosition(p)
	k, fa := []byte("k"), []FieldValue{{Field: "a", Value: []byte("1")}}
	res := n.MultiWrite(bg, []PutBatch{{PID: p, Ops: []Mutation{
		{Key: k, Value: []byte("v1")},
		{Kind: MutDelete, Key: k},
		{Key: k, Value: []byte("v2"), PutOptions: PutOptions{TTL: time.Hour}},
		{Kind: MutDelete, Key: []byte("ghost")},
		{Kind: MutClearTTL, Key: k},                                         // sees the batch's own expiring put
		{Key: k, Value: []byte("v3"), PutOptions: PutOptions{Cond: CondNX}}, // k exists by now: left alone
		{Kind: MutSetFields, Key: []byte("h"), Fields: fa},
		{Kind: MutDelFields, Key: []byte("h"), Fields: fa}, // empties the hash the batch created
		{Kind: MutSetFields, Key: []byte("str"), Fields: fa},
		{Kind: MutSetTTL, Key: []byte("ghost"), PutOptions: PutOptions{TTL: time.Hour}},
	}}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := []error{nil, nil, nil, ErrNotFound, nil, nil, nil, nil, hashfield.ErrNotHash, ErrNotFound}
	for i, bv := range res.Values {
		if !errors.Is(bv.Err, want[i]) || (want[i] == nil && bv.Err != nil) {
			t.Errorf("op %d err = %v, want %v", i, bv.Err, want[i])
		}
	}
	if st := n.TenantStats("t1"); st.Errors != 3 || st.Success != 8 {
		t.Errorf("counted %d errors and %d successes, want the three failed slots, the seven others and the seed", st.Errors, st.Success)
	}
	if got, err := n.Get(bg, p, k); err != nil || string(got.Value) != "v2" || got.ExpireAt != 0 {
		t.Errorf("k = %q expireAt %d, %v; want v2, persistent", got.Value, got.ExpireAt, err)
	}
	if _, err := n.Get(bg, p, []byte("h")); !errors.Is(err, ErrNotFound) {
		t.Errorf("h survived the deletion of its last field: %v", err)
	}
	// put, delete, put, clear-ttl's rewrite, the hash's creation and its
	// tombstone: six committed ops in one message.
	if len(rec.msgs) != 1 || len(rec.msgs[0]) != 6 || rec.pos[0] != posBefore+6 || n.ReplicationPosition(p) != posBefore+6 {
		t.Fatalf("forwarded %d messages %v at %v, position %d → %d; want one group of 6", len(rec.msgs), rec.msgs, rec.pos, posBefore, n.ReplicationPosition(p))
	}
}

// TestRepeatedKeyBatches pins the per-slot results of a sub-batch that
// writes one key several times, once with blind puts only (which build
// no overlay) and once with mutations that read the record the batch
// itself wrote: the slots, the key's final state and the one forwarded
// message, in order.
func TestRepeatedKeyBatches(t *testing.T) {
	k, j := []byte("k"), []byte("j")
	for _, tc := range []struct {
		name      string
		ops       []Mutation
		slots     []error
		final     string // k's value at the end; "" for absent
		forwarded []string
	}{
		{"blind", []Mutation{
			{Key: k, Value: []byte("a")},
			{Key: j, Value: []byte("b")},
			{Key: k, Value: []byte("c")},
		}, []error{nil, nil, nil}, "c", []string{"k=a", "j=b", "k=c"}},
		{"probing", []Mutation{
			{Key: k, Value: []byte("v1")},
			{Kind: MutDelete, Key: k},
			{Key: k, Value: []byte("v2"), PutOptions: PutOptions{Cond: CondXX}}, // deleted by now: left alone
			{Kind: MutDelete, Key: k},
			{Key: k, Value: []byte("v3"), PutOptions: PutOptions{Cond: CondNX}},
		}, []error{nil, nil, nil, ErrNotFound, nil}, "v3", []string{"k=v1", "k deleted", "k=v3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t, Config{})
			n.AddReplica(rid("t1", 0, 0), 1e9, true)
			p := pid("t1", 0)
			rec := &recorder{}
			n.SetReplicator(rec)
			res, err := multiWrite(n, p, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, bv := range res.Values {
				if !errors.Is(bv.Err, tc.slots[i]) || (tc.slots[i] == nil && bv.Err != nil) {
					t.Errorf("slot %d err = %v, want %v", i, bv.Err, tc.slots[i])
				}
			}
			if got, err := n.Get(bg, p, k); err != nil || string(got.Value) != tc.final {
				t.Errorf("k = %q, %v; want %q", got.Value, err, tc.final)
			}
			if len(rec.msgs) != 1 {
				t.Fatalf("%d forwarded messages, want one", len(rec.msgs))
			}
			var fwd []string
			for _, op := range rec.msgs[0] {
				if op.Delete {
					fwd = append(fwd, string(op.Key)+" deleted")
				} else {
					fwd = append(fwd, string(op.Key)+"="+string(op.Value))
				}
			}
			if fmt.Sprint(fwd) != fmt.Sprint(tc.forwarded) {
				t.Errorf("forwarded %v, want %v", fwd, tc.forwarded)
			}
		})
	}
}
