package datanode

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
)

func newTestNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "node-test"
	}
	n := New(cfg)
	t.Cleanup(func() { n.Close() })
	return n
}

func pid(tenant string, idx int) partition.ID {
	return partition.ID{Tenant: tenant, Index: idx}
}

func rid(tenant string, idx, rep int) partition.ReplicaID {
	return partition.ReplicaID{Partition: pid(tenant, idx), Replica: rep}
}

func TestPutGetDelete(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, pid("t1", 0), []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	res, err := n.Get(bg, pid("t1", 0), []byte("k"))
	if err != nil || string(res.Value) != "v" {
		t.Fatalf("Get = %q, %v", res.Value, err)
	}
	if _, err := del(n, pid("t1", 0), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(bg, pid("t1", 0), []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestGetUnknownPartition(t *testing.T) {
	n := newTestNode(t, Config{})
	if _, err := n.Get(bg, pid("nobody", 0), []byte("k")); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddReplicaTwiceFails(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 100, true); err != nil {
		t.Fatal(err)
	}
	if err := n.AddReplica(rid("t1", 0, 1), 100, false); err == nil {
		t.Fatal("duplicate partition accepted")
	}
}

func TestCacheHitOnSecondRead(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	n.Put(bg, p, []byte("k"), []byte("v"), 0)
	// Write-through: first read already hits.
	r1, _ := n.Get(bg, p, []byte("k"))
	if !r1.CacheHit {
		t.Fatal("write-through cache missed")
	}
	// Hit costs zero read RU per §4.1.
	if r1.RU != 0 {
		t.Fatalf("cache hit charged %v RU", r1.RU)
	}
	stats := n.TenantStats("t1")
	if stats.CacheHits == 0 {
		t.Fatal("hit not recorded")
	}
}

func TestCacheMissChargesRU(t *testing.T) {
	n := newTestNode(t, Config{CacheBytes: 1 << 10}) // tiny cache
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	// Write values large enough that the tiny cache can't hold them all.
	for i := 0; i < 50; i++ {
		n.Put(bg, p, []byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte("x"), 200), 0)
	}
	var missRU float64
	var hits, misses int64
	for i := 0; i < 50; i++ {
		res, err := n.Get(bg, p, []byte(fmt.Sprintf("k%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			hits++
		} else {
			misses++
			missRU += res.RU
		}
	}
	if missRU == 0 {
		t.Fatal("no cache misses observed with tiny cache")
	}
	// The tenant's cells count each read's SA-LRU outcome once.
	if st := n.TenantStats("t1"); st.CacheHits != hits || st.CacheMiss != misses {
		t.Fatalf("tenant counted %d hits, %d misses; the reads saw %d, %d", st.CacheHits, st.CacheMiss, hits, misses)
	}
	// A key never written missed the SA-LRU too: the engine was read.
	if _, err := n.Get(bg, p, []byte("never-written")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a never-written key = %v, want ErrNotFound", err)
	}
	if st := n.TenantStats("t1"); st.CacheMiss != misses+1 {
		t.Fatalf("a read of an absent key counted %d misses, want %d", st.CacheMiss-misses, 1)
	}
}

func TestPartitionQuotaThrottles(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 10, true) // 10 RU/s → 30 burst
	p := pid("t1", 0)
	throttled := 0
	for i := 0; i < 200; i++ {
		_, err := n.Put(bg, p, []byte("k"), bytes.Repeat([]byte("v"), 2048), 0)
		if errors.Is(err, ErrThrottled) {
			throttled++
		}
	}
	if throttled == 0 {
		t.Fatal("partition quota never throttled")
	}
	if n.TenantStats("t1").Throttled == 0 {
		t.Fatal("throttle not counted")
	}
}

func TestWriteRUReplicaMultiplier(t *testing.T) {
	n := newTestNode(t, Config{Replicas: 3})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	res, err := n.Put(bg, pid("t1", 0), []byte("k"), bytes.Repeat([]byte("v"), 2048), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RU != 3 { // 2048/2048 × 3 replicas
		t.Fatalf("write RU = %v, want 3", res.RU)
	}
}

func TestReplicationFabric(t *testing.T) {
	primary := newTestNode(t, Config{ID: "n1"})
	follower := newTestNode(t, Config{ID: "n2"})
	primary.AddReplica(rid("t1", 0, 0), 1000, true)
	follower.AddReplica(rid("t1", 0, 1), 1000, false)
	var wg sync.WaitGroup
	primary.SetReplicator(replFunc(func(r partition.ReplicaID, key, value []byte, expireAt int64, del bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			follower.ApplyReplicated(r.Partition, 0, WriteOp{Key: key, Value: value, ExpireAt: expireAt, Delete: del})
		}()
	}))
	primary.Put(bg, pid("t1", 0), []byte("k"), []byte("v"), 0)
	wg.Wait()
	res, err := follower.Get(bg, pid("t1", 0), []byte("k"))
	if err != nil || string(res.Value) != "v" {
		t.Fatalf("follower read = %q, %v", res.Value, err)
	}
}

type replFunc func(partition.ReplicaID, []byte, []byte, int64, bool)

func (f replFunc) Replicate(r partition.ReplicaID, _ []Peer, ops []WriteOp, _ uint64, pin lavastore.Pin) {
	defer pin.Release()
	for _, op := range ops {
		f(r, op.Key, op.Value, op.ExpireAt, op.Delete)
	}
}

func TestTTLWrites(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	if _, err := n.Put(bg, p, []byte("k"), []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(bg, p, []byte("k")); err != nil {
		t.Fatalf("fresh TTL key: %v", err)
	}
}

func TestHashOps(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	k := []byte("h")

	if added, err := hSet(n, p, k, "f1", []byte("v1")); err != nil || added != 1 {
		t.Fatalf("HSet new = %d, %v", added, err)
	}
	if added, _ := hSet(n, p, k, "f1", []byte("v1b")); added != 0 {
		t.Fatalf("HSet overwrite = %d", added)
	}
	hSet(n, p, k, "f2", []byte("v2"))

	v, err := hGet(n, p, k, "f1")
	if err != nil || string(v) != "v1b" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if _, err := hGet(n, p, k, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("HGet absent: %v", err)
	}
	if l, _ := hLen(n, p, k); l != 2 {
		t.Fatalf("HLen = %d", l)
	}
	all, _ := hGetAll(n, p, k)
	if len(all) != 2 || string(all["f2"]) != "v2" {
		t.Fatalf("HGetAll = %v", all)
	}
	if removed, _ := hDel(n, p, k, "f1", "absent"); removed != 1 {
		t.Fatalf("HDel = %d", removed)
	}
	if l, _ := hLen(n, p, k); l != 1 {
		t.Fatalf("HLen after HDel = %d", l)
	}
	// Deleting the last field removes the key.
	hDel(n, p, k, "f2")
	if l, _ := hLen(n, p, k); l != 0 {
		t.Fatalf("HLen after emptying = %d", l)
	}
}

func TestHashOnMissingKey(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	if l, err := hLen(n, p, []byte("nope")); err != nil || l != 0 {
		t.Fatalf("HLen = %d, %v", l, err)
	}
	if all, err := hGetAll(n, p, []byte("nope")); err != nil || len(all) != 0 {
		t.Fatalf("HGetAll = %v, %v", all, err)
	}
	if removed, err := hDel(n, p, []byte("nope"), "f"); err != nil || removed != 0 {
		t.Fatalf("HDel = %d, %v", removed, err)
	}
}

func TestTenantStatsAndReset(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	n.Put(bg, p, []byte("k"), []byte("v"), 0)
	n.Get(bg, p, []byte("k"))
	st := n.TenantStats("t1")
	if st.Success != 2 {
		t.Fatalf("Success = %d", st.Success)
	}
	if st.RUUsed <= 0 {
		t.Fatalf("RUUsed = %v", st.RUUsed)
	}
	if st.HitRatio() != 1 {
		t.Fatalf("HitRatio = %v", st.HitRatio())
	}
	// Unknown tenant snapshot is zero-valued.
	if n.TenantStats("nobody").Success != 0 {
		t.Fatal("unknown tenant nonzero")
	}
}

func TestNodeSnapshot(t *testing.T) {
	n := newTestNode(t, Config{ID: "snap"})
	n.AddReplica(rid("t1", 0, 0), 1000, true)
	n.Put(bg, pid("t1", 0), []byte("k"), bytes.Repeat([]byte("v"), 1000), 0)
	s := n.Snapshot()
	if s.ID != "snap" || s.Replicas != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.CacheUsed == 0 {
		t.Fatal("cache empty after write-through put")
	}
}

// TestCopyReplicaToDownTargetFails pins the repair/backfill data
// path's failure contract: a copy whose applies fail (here: the target
// is down) must surface the error, and the target must NOT adopt the
// source's replication position — a zero-record copy that reports
// itself fully caught up would later win a catch-up-gated promotion
// and silently lose every acknowledged write.
func TestCopyReplicaToDownTargetFails(t *testing.T) {
	src := newTestNode(t, Config{ID: "src"})
	dst := newTestNode(t, Config{ID: "dst"})
	p := pid("t1", 0)
	src.AddReplica(rid("t1", 0, 0), 1000, true)
	for i := 0; i < 50; i++ {
		src.Put(bg, p, []byte(fmt.Sprintf("k%03d", i)), []byte("v"), 0)
	}
	if err := dst.AddReplica(rid("t1", 0, 1), 1000, false); err != nil {
		t.Fatal(err)
	}
	dst.SetDown(true)
	if err := src.CopyReplicaTo(p, dst); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("copy to down target: err = %v, want ErrNodeDown", err)
	}
	dst.SetDown(false)
	if pos := dst.ReplicationPosition(p); pos != 0 {
		t.Fatalf("failed copy adopted replication position %d", pos)
	}
	// A retry once the target is back succeeds and catches up fully.
	if err := src.CopyReplicaTo(p, dst); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.ReplicationPosition(p), src.ReplicationPosition(p); got != want {
		t.Fatalf("retried copy position = %d, want %d", got, want)
	}
}

// TestMigrateTo: the metaserver movers' data path — a CopyReplicaTo
// followed by RemoveReplica on the source — leaves every key on the
// destination and nothing hosted on the source.
func TestMigrateTo(t *testing.T) {
	src := newTestNode(t, Config{ID: "src"})
	dst := newTestNode(t, Config{ID: "dst"})
	src.AddReplica(rid("t1", 0, 0), 1000, true)
	p := pid("t1", 0)
	for i := 0; i < 100; i++ {
		src.Put(bg, p, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)), 0)
	}
	if err := dst.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
		t.Fatal(err)
	}
	if err := src.CopyReplicaTo(p, dst); err != nil {
		t.Fatal(err)
	}
	if err := src.RemoveReplica(p); err != nil {
		t.Fatal(err)
	}
	if src.HostsReplica(p) {
		t.Fatal("source still hosts replica")
	}
	for i := 0; i < 100; i++ {
		res, err := dst.Get(bg, p, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(res.Value) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("dst key %d = %q, %v", i, res.Value, err)
		}
	}
}

func TestSetPartitionQuota(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 1, true)
	if err := n.SetPartitionQuota(pid("t1", 0), 1_000_000); err != nil {
		t.Fatal(err)
	}
	// Generous quota: no throttling now.
	for i := 0; i < 100; i++ {
		if _, err := n.Put(bg, pid("t1", 0), []byte("k"), []byte("v"), 0); err != nil {
			t.Fatalf("throttled after quota raise: %v", err)
		}
	}
	if err := n.SetPartitionQuota(pid("zz", 9), 5); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveReplica(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100, true)
	if err := n.RemoveReplica(pid("t1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveReplica(pid("t1", 0)); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("double remove: %v", err)
	}
	if len(n.Replicas()) != 0 {
		t.Fatal("replica list not empty")
	}
}

// TestRemoveReplicaDeletesItsFiles: a removed replica leaves nothing on
// the node's filesystem, so a moved partition's bytes are released and
// a later replica of the same number starts empty instead of reopening
// the old one's tables beneath its backfill.
func TestRemoveReplicaDeletesItsFiles(t *testing.T) {
	fs := lavastore.NewMemFS()
	n := newTestNode(t, Config{FS: fs})
	other := rid("t1", 1, 0)
	for _, r := range []partition.ReplicaID{rid("t1", 0, 0), other} {
		if err := n.AddReplica(r, 1e6, true); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Put(bg, r.Partition, []byte("k"), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	dir := "node-test/" + pid("t1", 0).String() + "-0"
	if names, _ := fs.List(dir); len(names) == 0 {
		t.Fatalf("no engine files under %q: the test is looking in the wrong place", dir)
	}
	if err := n.RemoveReplica(pid("t1", 0)); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(dir); len(names) != 0 {
		t.Errorf("removed replica left files behind: %v", names)
	}
	if err := n.AddReplica(rid("t1", 0, 0), 1e6, true); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Get(bg, pid("t1", 0), []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("re-added replica serves the removed one's data: %q, %v", got.Value, err)
	}
	if got, err := n.Get(bg, other.Partition, []byte("k")); err != nil || string(got.Value) != "v" {
		t.Errorf("a neighbouring replica lost its data: %q, %v", got.Value, err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	n := newTestNode(t, Config{})
	n.AddReplica(rid("t1", 0, 0), 100000, true)
	n.AddReplica(rid("t2", 0, 0), 100000, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "t1"
			if g%2 == 1 {
				tenant = "t2"
			}
			p := pid(tenant, 0)
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("k%d", i%20))
				if i%3 == 0 {
					n.Put(bg, p, k, []byte("v"), 0)
				} else {
					n.Get(bg, p, k)
				}
			}
		}(g)
	}
	wg.Wait()
	s1, s2 := n.TenantStats("t1"), n.TenantStats("t2")
	if s1.Success+s1.Errors == 0 || s2.Success+s2.Errors == 0 {
		t.Fatal("tenants did not both make progress")
	}
}

func BenchmarkNodeGetCacheHit(b *testing.B) {
	n := New(Config{ID: "bench"})
	defer n.Close()
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p := pid("t1", 0)
	key := []byte("k") // built once: the timed loop allocates only what Get does
	n.Put(bg, p, key, bytes.Repeat([]byte("v"), 100), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Get(bg, p, key)
	}
}

// BenchmarkNodeGetCacheHitParallel is BenchmarkNodeGetCacheHit with one
// caller per CPU over 64 warm keys, as BenchmarkProxyGetHit is for the
// proxy: run it at -cpu 1,2 to see whether a second core pays less per
// hit or queues on a lock.
func BenchmarkNodeGetCacheHitParallel(b *testing.B) {
	n := New(Config{ID: "bench"})
	defer n.Close()
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p := pid("t1", 0)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
		n.Put(bg, p, keys[i], bytes.Repeat([]byte("v"), 100), 0)
		if _, err := n.Get(bg, p, keys[i]); err != nil { // fills the SA-LRU
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) // callers start on different keys
		for ; pb.Next(); i++ {
			if _, err := n.Get(bg, p, keys[i%uint64(len(keys))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkNodePut(b *testing.B) {
	n := New(Config{ID: "bench"})
	defer n.Close()
	n.AddReplica(rid("t1", 0, 0), 1e9, true)
	p := pid("t1", 0)
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Put(bg, p, []byte(fmt.Sprintf("k%09d", i)), val, 0)
	}
}

// TestHotKeysAndPartitionHeat: every op path feeds the replica's
// heavy-hitter sketch and heat meter, and HotKeys/PartitionHeat expose
// them for the HOTKEYS command and the control plane.
func TestHotKeysAndPartitionHeat(t *testing.T) {
	n := newTestNode(t, Config{HotSampleRate: 1})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	if _, err := n.Put(bg, p, []byte("hot"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := n.Get(bg, p, []byte("hot")); err != nil {
			t.Fatal(err)
		}
		if i%30 == 0 {
			n.Get(bg, p, []byte(fmt.Sprintf("cold-%d", i))) // misses still count as offered load
		}
	}
	top, err := n.HotKeys(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || top[0].Key != "hot" {
		t.Fatalf("HotKeys = %+v, want hot first", top)
	}
	if top[0].Count < 250 {
		t.Fatalf("hot count = %v, want ≈301 (unsampled sketch)", top[0].Count)
	}
	if heat := n.PartitionHeat(p); heat < 25 {
		t.Fatalf("PartitionHeat = %v ops/s, want the hammered rate", heat)
	}
	if heat := n.PartitionHeat(pid("t1", 9)); heat != 0 {
		t.Fatalf("unknown replica heat = %v, want 0", heat)
	}
	all := n.PartitionHeats()
	if len(all) != 1 || all[p] == 0 {
		t.Fatalf("PartitionHeats = %v", all)
	}
	n.ResetHeat(p)
	if heat := n.PartitionHeat(p); heat != 0 {
		t.Fatalf("heat after ResetHeat = %v", heat)
	}
	if top, _ := n.HotKeys(p, 0); len(top) != 0 {
		t.Fatalf("sketch after ResetHeat = %+v", top)
	}
	if _, err := n.HotKeys(pid("t1", 9), 3); err == nil {
		t.Fatal("HotKeys on unknown replica succeeded")
	}
}

// TestBatchPathsFeedHeat: the batched read path records every key of a
// sub-batch in the sketch with one meter update.
func TestBatchPathsFeedHeat(t *testing.T) {
	n := newTestNode(t, Config{HotSampleRate: 1})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bk-%d", i))
		if _, err := n.Put(bg, p, keys[i], []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		for _, res := range n.MultiGet(bg, []GetBatch{{PID: p, Keys: keys}}) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	top, err := n.HotKeys(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, hk := range top {
		seen[hk.Key] = true
	}
	for _, k := range keys {
		if !seen[string(k)] {
			t.Fatalf("batched key %q missing from sketch (top = %+v)", k, top)
		}
	}
	if heat := n.PartitionHeat(p); heat < 8*40/20 {
		t.Fatalf("PartitionHeat = %v, want the batched offered load", heat)
	}
}

// TestHSetMultiSemantics: one read-modify-write applies all pairs in
// order; duplicates are last-wins and count once when new.
func TestHSetMultiSemantics(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	p := pid("t1", 0)
	key := []byte("h")
	added, err := hSetMulti(n, p, key, []FieldValue{
		{Field: "f1", Value: []byte("a")},
		{Field: "f1", Value: []byte("b")}, // duplicate: last wins, counted once
		{Field: "f2", Value: []byte("c")},
	})
	if err != nil || added != 2 {
		t.Fatalf("HSetMulti = %d, %v; want 2 new fields", added, err)
	}
	if v, err := hGet(n, p, key, "f1"); err != nil || string(v) != "b" {
		t.Fatalf("f1 = %q, %v; want last-wins b", v, err)
	}
	// Overwriting existing fields adds nothing; a fresh one counts.
	added, err = hSetMulti(n, p, key, []FieldValue{
		{Field: "f2", Value: []byte("c2")},
		{Field: "f3", Value: []byte("d")},
	})
	if err != nil || added != 1 {
		t.Fatalf("second HSetMulti = %d, %v; want 1", added, err)
	}
	if added, err := hSetMulti(n, p, key, nil); err != nil || added != 0 {
		t.Fatalf("empty HSetMulti = %d, %v", added, err)
	}
	if cnt, err := hLen(n, p, key); err != nil || cnt != 3 {
		t.Fatalf("HLen = %d, %v", cnt, err)
	}
}
