package abase

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/lavastore"
	"abase/internal/metaserver"
	"abase/internal/partition"
	"abase/internal/proxy"
)

// budgetRow is one line of the per-layer allocation budget: an
// operation on one path through one layer, the exact number of heap
// allocations it makes, and a ceiling on the bytes they take. setup
// builds the layer and returns the operation.
type budgetRow struct {
	layer, op, path string
	allocs          int
	bytes           uint64
	setup           func(t *testing.T) func()
}

// TestAllocBudget pins the allocations of a request at each layer it
// crosses, from the engine up to the Client (the RESP rows are
// internal/resp's TestAllocBudget). Counts are exact: a row fails at
// one allocation more and, so the table stays true, at one fewer. The
// counts are the same on every machine. A write's bytes include the
// memtable pages it fills, amortised over the runs, so the write rows'
// ceilings leave room for where the page boundaries fall.
//
//	go test -run TestAllocBudget -count=3 .
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	value := bytes.Repeat([]byte("v"), 100)
	rows := []budgetRow{
		{"engine", "Get", "memtable", 1, 160, func(t *testing.T) func() {
			db := openEngine(t)
			key := []byte("key-0001")
			must(t, db.Put(key, value, 0))
			return func() { must(t, errOf(db.Get(key))) }
		}},
		{"engine", "Get", "table", 1, 160, func(t *testing.T) func() {
			db := openEngine(t)
			key := []byte("key-0001")
			must(t, db.Put(key, value, 0))
			must(t, db.Flush())
			return func() { must(t, errOf(db.Get(key))) }
		}},
		{"engine", "Commit", "one op", 0, 768, func(t *testing.T) func() {
			db := openEngine(t)
			ops := []lavastore.BatchOp{{Key: []byte("key-0001"), Value: value}}
			return func() {
				if _, _, err := db.Commit(ops, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"node", "Get", "SA-LRU hit", 0, 256, func(t *testing.T) func() {
			n, pid := budgetNode(t, 0)
			key := []byte("key-0001")
			must(t, errOf(n.Put(bg, pid, key, value, 0)))
			must(t, errOf(n.Get(bg, pid, key))) // fills the SA-LRU
			return func() { must(t, errOf(n.Get(bg, pid, key))) }
		}},
		{"node", "Get", "memtable", 1, 256, func(t *testing.T) func() {
			n, pid := budgetNode(t, 1) // caches nothing
			key := []byte("key-0001")
			must(t, errOf(n.Put(bg, pid, key, value, 0)))
			return func() { must(t, errOf(n.Get(bg, pid, key))) }
		}},
		{"node", "Get", "table", 1, 256, func(t *testing.T) func() {
			n, pid := budgetNode(t, 1)
			key := []byte("key-0001")
			must(t, errOf(n.Put(bg, pid, key, value, 0)))
			// Past the engine's 4 MiB memtable, so key-0001 was flushed to
			// a table and no memtable holds it.
			big := bytes.Repeat([]byte("x"), 64<<10)
			for i := 0; i < 80; i++ {
				must(t, errOf(n.Put(bg, pid, []byte(fmt.Sprintf("fill-%03d", i)), big, 0)))
			}
			return func() { must(t, errOf(n.Get(bg, pid, key))) }
		}},
		{"node", "Put", "new key", 2, 1024, func(t *testing.T) func() {
			n, pid := budgetNode(t, 0)
			keys := budgetKeys(budgetRuns + 1)
			i := 0
			return func() {
				must(t, errOf(n.Put(bg, pid, keys[i], value, 0)))
				i++
			}
		}},
		{"proxy", "Get", "AU-LRU hit", 0, 256, func(t *testing.T) func() {
			p, settle := budgetProxy(t, 0, time.Hour)
			key := []byte("key-0001")
			must(t, p.Put(bg, key, value, 0))
			for i := 0; i < 3; i++ { // hot on the second access, then cached
				must(t, errOf(p.Get(bg, key)))
			}
			settle()
			return func() { must(t, errOf(p.Get(bg, key))) }
		}},
		{"proxy", "Get", "miss", 0, 256, func(t *testing.T) func() {
			p, settle := budgetProxy(t, 1<<30, time.Hour) // no key ever earns an AU-LRU slot
			key := []byte("key-0001")
			must(t, p.Put(bg, key, value, 0))
			settle()
			return func() { must(t, errOf(p.Get(bg, key))) }
		}},
		{"proxy", "Get", "miss that fills", 2, 256, func(t *testing.T) func() {
			// Every entry has expired by the next request, so each Get
			// misses, reads the node and fills the AU-LRU anew.
			p, settle := budgetProxy(t, 0, time.Nanosecond)
			key := []byte("key-0001")
			must(t, p.Put(bg, key, value, 0))
			settle()
			return func() { must(t, errOf(p.Get(bg, key))) }
		}},
		{"proxy", "Set", "", 0, 1536, func(t *testing.T) func() {
			p, _ := budgetProxy(t, 0, time.Hour)
			key := []byte("key-0001")
			return func() { must(t, p.Put(bg, key, value, 0)) }
		}},
		{"client", "Get", "", 0, 256, func(t *testing.T) func() {
			c, settle := budgetClient(t)
			key := []byte("key-0001")
			must(t, c.Set(bg, key, value))
			for i := 0; i < 3; i++ {
				must(t, errOf(c.Get(bg, key)))
			}
			settle()
			return func() { must(t, errOf(c.Get(bg, key))) }
		}},
		{"client", "Set", "", 0, 1536, func(t *testing.T) func() {
			c, _ := budgetClient(t)
			key := []byte("key-0001")
			return func() { must(t, c.Set(bg, key, value)) }
		}},
	}
	for _, row := range rows {
		name := row.layer + "/" + row.op
		if row.path != "" {
			name += "/" + row.path
		}
		t.Run(name, func(t *testing.T) {
			allocs, bytes := measureAllocs(row.setup(t))
			t.Logf("%d allocs, %d B per op", allocs, bytes)
			if allocs != row.allocs {
				t.Errorf("%d allocations per op, budget %d: a new allocation is a regression, and a saved one lowers the row", allocs, row.allocs)
			}
			if bytes > row.bytes {
				t.Errorf("%d bytes per op, ceiling %d", bytes, row.bytes)
			}
		})
	}
}

// budgetRuns is how many times a row's operation runs while measured.
// The count is a floor of the mean, so the few allocations made off the
// request path meanwhile (a replication lane, a pool refill after a GC)
// never add one to it.
const budgetRuns = 5000

// measureAllocs returns op's allocations and allocated bytes per run.
func measureAllocs(op func()) (allocs int, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// AllocsPerRun runs op once more, unmeasured, to warm it up; the
	// byte count covers that run too.
	allocs = int(testing.AllocsPerRun(budgetRuns, op))
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (budgetRuns + 1)
}

func budgetKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	return keys
}

func openEngine(t *testing.T) *lavastore.DB {
	db, err := lavastore.Open(lavastore.Options{FS: lavastore.NewMemFS(), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// budgetNode is one DataNode hosting the primary of one partition, its
// SA-LRU cacheBytes large (0 = the default).
func budgetNode(t *testing.T, cacheBytes int64) (*datanode.Node, partition.ID) {
	n := datanode.New(datanode.Config{ID: "budget", CacheBytes: cacheBytes})
	t.Cleanup(func() { n.Close() })
	pid := partition.ID{Tenant: "t1", Index: 0}
	if err := n.AddReplica(partition.ReplicaID{Partition: pid}, 1e9, true); err != nil {
		t.Fatal(err)
	}
	return n, pid
}

// budgetProxy is a proxy of tenant t1 over three nodes, its AU-LRU
// admitting a key on its hotAdmit-th access (0 = the default) and
// keeping an entry for ttl. settle
// waits until the followers have applied every write so far, so a read
// row measures no replication.
func budgetProxy(t *testing.T, hotAdmit int, ttl time.Duration) (p *proxy.Proxy, settle func()) {
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("node-%d", i)})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: 1e9, Partitions: 2, Proxies: 1}); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{
		Tenant: "t1", ID: "p0", Meta: m,
		EnableCache: true, CacheTTL: ttl, HotAdmitThreshold: hotAdmit,
		ProxyQuota: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.FlushReplication) // runs first: no lane outlives the nodes
	return p, m.FlushReplication
}

// budgetClient is budgetProxy's Client: a tenant of one proxy on a
// three-node cluster.
func budgetClient(t *testing.T) (*Client, func()) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tenant, err := c.CreateTenant(TenantSpec{Name: "app", QuotaRU: 1e9, Partitions: 2, Proxies: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Meta.FlushReplication)
	return tenant.Client(), c.Meta.FlushReplication
}

func must(t *testing.T, err error) {
	if err != nil {
		t.Fatal(err)
	}
}

// errOf drops a result, keeping its error.
func errOf[R any](_ R, err error) error { return err }
