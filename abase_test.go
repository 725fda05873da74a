package abase

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/resp"
	"abase/internal/wfq"
)

func newCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterQuickstart(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tenant, err := c.CreateTenant(TenantSpec{
		Name: "app", QuotaRU: 100000, Partitions: 4, Proxies: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tenant.Client()
	if err := cl.Set(bg, []byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(bg, []byte("greeting"))
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cl.Delete(bg, []byte("greeting")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(bg, []byte("greeting")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 2, Replicas: 3}); err == nil {
		t.Fatal("replicas > nodes accepted")
	}
	c := newCluster(t, ClusterConfig{Nodes: 3})
	if _, err := c.CreateTenant(TenantSpec{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if _, err := c.Tenant("ghost"); err == nil {
		t.Fatal("unknown tenant lookup succeeded")
	}
}

// TestNegativeConfigRefused: a negative count, size, duration, cost or
// quota is an error naming the field, not a value quietly replaced by
// its default. WFQ passes through: ExtraIOThreads -1 means "none".
func TestNegativeConfigRefused(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3, WFQ: wfq.Config{ExtraIOThreads: -1}})
	for _, tc := range []struct {
		field   string
		cluster ClusterConfig
		tenant  TenantSpec
	}{
		{field: "ClusterConfig.Nodes", cluster: ClusterConfig{Nodes: -1}},
		{field: "ClusterConfig.Replicas", cluster: ClusterConfig{Replicas: -1}},
		{field: "ClusterConfig.NodeCacheBytes", cluster: ClusterConfig{NodeCacheBytes: -1}},
		{field: "ClusterConfig.Cost.CPUTime", cluster: ClusterConfig{Cost: datanode.CostModel{CPUTime: -time.Microsecond}}},
		{field: "ClusterConfig.Cost.IOReadTime", cluster: ClusterConfig{Cost: datanode.CostModel{IOReadTime: -1}}},
		{field: "ClusterConfig.Cost.IOWriteTime", cluster: ClusterConfig{Cost: datanode.CostModel{IOWriteTime: -1}}},
		{field: "ClusterConfig.AdmitCost", cluster: ClusterConfig{AdmitCost: -time.Microsecond}},
		{field: "ClusterConfig.HeatSplitThreshold", cluster: ClusterConfig{HeatSplitThreshold: -1}},
		{field: "ClusterConfig.HeatSplitWindows", cluster: ClusterConfig{HeatSplitWindows: -1}},
		{field: "ClusterConfig.HotSampleRate", cluster: ClusterConfig{HotSampleRate: -1}},
		{field: "ClusterConfig.DownAfterProbes", cluster: ClusterConfig{DownAfterProbes: -1}},
		{field: "TenantSpec.QuotaRU", tenant: TenantSpec{Name: "q", QuotaRU: -1}},
		{field: "TenantSpec.Partitions", tenant: TenantSpec{Name: "p", Partitions: -4}},
		{field: "TenantSpec.Proxies", tenant: TenantSpec{Name: "x", Proxies: -1}},
		{field: "TenantSpec.ProxyGroups", tenant: TenantSpec{Name: "g", ProxyGroups: -1}},
		{field: "TenantSpec.ProxyCacheBytes", tenant: TenantSpec{Name: "b", ProxyCacheBytes: -1}},
	} {
		var err error
		if tc.tenant.Name == "" {
			var bad *Cluster
			if bad, err = NewCluster(tc.cluster); err == nil {
				bad.Close()
			}
		} else {
			_, err = c.CreateTenant(tc.tenant)
		}
		if err == nil || !strings.Contains(err.Error(), tc.field+" is negative") {
			t.Errorf("%s < 0: error %v, want one naming the field", tc.field, err)
		}
	}
	if _, err := c.Tenant("p"); err == nil {
		t.Error("a refused tenant was provisioned")
	}
}

func TestMultiTenantIsolationOfData(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	t1, _ := c.CreateTenant(TenantSpec{Name: "t1", QuotaRU: 100000})
	t2, _ := c.CreateTenant(TenantSpec{Name: "t2", QuotaRU: 100000})
	t1.Client().Set(bg, []byte("shared-key"), []byte("from-t1"))
	t2.Client().Set(bg, []byte("shared-key"), []byte("from-t2"))
	v1, _ := t1.Client().Get(bg, []byte("shared-key"))
	v2, _ := t2.Client().Get(bg, []byte("shared-key"))
	if string(v1) != "from-t1" || string(v2) != "from-t2" {
		t.Fatalf("cross-tenant leak: %q %q", v1, v2)
	}
}

func TestHashOpsThroughClient(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "h", QuotaRU: 100000})
	cl := tn.Client()
	if n, err := cl.HSet(bg, []byte("user:1"), "name", []byte("ada")); err != nil || n != 1 {
		t.Fatalf("HSet = %d, %v", n, err)
	}
	cl.HSet(bg, []byte("user:1"), "lang", []byte("go"))
	v, err := cl.HGet(bg, []byte("user:1"), "name")
	if err != nil || string(v) != "ada" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if n, _ := cl.HLen(bg, []byte("user:1")); n != 2 {
		t.Fatalf("HLen = %d", n)
	}
	all, _ := cl.HGetAll(bg, []byte("user:1"))
	if len(all) != 2 {
		t.Fatalf("HGetAll = %v", all)
	}
	if n, _ := cl.HDel(bg, []byte("user:1"), "lang"); n != 1 {
		t.Fatalf("HDel = %d", n)
	}
}

func TestMGetMSet(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "m", QuotaRU: 100000})
	cl := tn.Client()
	if err := cl.MSetPairs(bg, []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	vs, err := cl.MGet(bg, []byte("a"), []byte("missing"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if string(vs[0]) != "1" || vs[1] != nil || string(vs[2]) != "2" {
		t.Fatalf("MGet = %q", vs)
	}
}

func TestTenantSetQuotaPropagates(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "q", QuotaRU: 10, Partitions: 2, Proxies: 2})
	if tn.Quota() != 10 {
		t.Fatalf("Quota = %v", tn.Quota())
	}
	tn.SetQuota(1_000_000)
	if tn.Quota() != 1_000_000 {
		t.Fatalf("Quota after set = %v", tn.Quota())
	}
	// Generous quota: writes must flow without throttling.
	cl := tn.Client()
	for i := 0; i < 200; i++ {
		if err := cl.Set(bg, []byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("x"), 1024)); err != nil {
			t.Fatalf("throttled after quota raise: %v", err)
		}
	}
}

func TestTTLThroughCluster(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "ttl", QuotaRU: 100000, DisableProxyCache: true})
	cl := tn.Client()
	cl.Set(bg, []byte("k"), []byte("v"), WithTTL(time.Hour))
	if _, err := cl.Get(bg, []byte("k")); err != nil {
		t.Fatalf("fresh TTL key missing: %v", err)
	}
}

func TestMonitorTrafficOnce(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "mt", QuotaRU: 1000})
	c.MonitorTrafficOnce(time.Second) // smoke: no panic, no deadlock
}

func TestServeRESP(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "web", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if v, _ := cl.DoStrings("PING"); v.Text() != "PONG" {
		t.Fatalf("PING = %v", v)
	}
	// Before AUTH, data commands are rejected.
	if v, _ := cl.DoStrings("GET", "k"); !v.IsError() {
		t.Fatalf("unauthenticated GET = %+v", v)
	}
	if v, _ := cl.DoStrings("AUTH", "web"); v.Text() != "OK" {
		t.Fatalf("AUTH = %v", v)
	}
	if v, _ := cl.DoStrings("SET", "k", "v"); v.Text() != "OK" {
		t.Fatalf("SET = %v", v)
	}
	if v, _ := cl.DoStrings("GET", "k"); v.Text() != "v" {
		t.Fatalf("GET = %v", v)
	}
	if v, _ := cl.DoStrings("SET", "e", "x", "EX", "100"); v.Text() != "OK" {
		t.Fatalf("SET EX = %v", v)
	}
	if v, _ := cl.DoStrings("DEL", "k"); v.Int != 1 {
		t.Fatalf("DEL = %+v", v)
	}
	if v, _ := cl.DoStrings("GET", "k"); !v.Null {
		t.Fatalf("GET deleted = %+v", v)
	}
	if v, _ := cl.DoStrings("HSET", "h", "f1", "v1", "f2", "v2"); v.Int != 2 {
		t.Fatalf("HSET = %+v", v)
	}
	if v, _ := cl.DoStrings("HLEN", "h"); v.Int != 2 {
		t.Fatalf("HLEN = %+v", v)
	}
	if v, _ := cl.DoStrings("HGETALL", "h"); len(v.Array) != 4 {
		t.Fatalf("HGETALL = %+v", v)
	}
	if v, _ := cl.DoStrings("MSET", "a", "1", "b", "2"); v.Text() != "OK" {
		t.Fatalf("MSET = %v", v)
	}
	if v, _ := cl.DoStrings("MGET", "a", "nope", "b"); len(v.Array) != 3 || !v.Array[1].Null {
		t.Fatalf("MGET = %+v", v)
	}
	if v, _ := cl.DoStrings("EXISTS", "a", "nope"); v.Int != 1 {
		t.Fatalf("EXISTS = %+v", v)
	}
	if v, _ := cl.DoStrings("AUTH", "ghost"); !v.IsError() {
		t.Fatalf("AUTH ghost = %+v", v)
	}
	if v, _ := cl.DoStrings("BOGUS"); !v.IsError() {
		t.Fatalf("BOGUS = %+v", v)
	}
}

func TestServeDefaultTenant(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "def", QuotaRU: 100000})
	addr, srv, err := c.Serve("127.0.0.1:0", "def")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()
	if v, _ := cl.DoStrings("SET", "x", "1"); v.Text() != "OK" {
		t.Fatalf("SET with default tenant = %+v", v)
	}
}

func TestTTLThroughStack(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "ttl2", QuotaRU: 100000, DisableProxyCache: true})
	cl := tn.Client()
	cl.Set(bg, []byte("eternal"), []byte("v"))
	cl.Set(bg, []byte("mortal"), []byte("v"), WithTTL(time.Hour))

	if _, hasTTL, err := cl.TTL(bg, []byte("eternal")); err != nil || hasTTL {
		t.Fatalf("eternal TTL = hasTTL=%v err=%v", hasTTL, err)
	}
	ttl, hasTTL, err := cl.TTL(bg, []byte("mortal"))
	if err != nil || !hasTTL || ttl <= 0 || ttl > time.Hour {
		t.Fatalf("mortal TTL = %v %v %v", ttl, hasTTL, err)
	}
	if _, _, err := cl.TTL(bg, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost TTL err = %v", err)
	}
	if err := cl.Expire(bg, []byte("eternal"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, hasTTL, _ := cl.TTL(bg, []byte("eternal")); !hasTTL {
		t.Fatal("Expire did not set TTL")
	}
	if err := cl.Expire(bg, []byte("ghost"), time.Minute); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Expire ghost = %v", err)
	}
}

func TestServeTTLCommands(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "web2", QuotaRU: 100000, DisableProxyCache: true})
	addr, srv, err := c.Serve("127.0.0.1:0", "web2")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, _ := resp.Dial(addr)
	defer cl.Close()

	cl.DoStrings("SET", "k", "v", "EX", "100")
	if v, _ := cl.DoStrings("TTL", "k"); v.Int <= 0 || v.Int > 100 {
		t.Fatalf("TTL = %+v", v)
	}
	cl.DoStrings("SET", "p", "v")
	if v, _ := cl.DoStrings("TTL", "p"); v.Int != -1 {
		t.Fatalf("TTL persistent = %+v", v)
	}
	if v, _ := cl.DoStrings("TTL", "ghost"); v.Int != -2 {
		t.Fatalf("TTL absent = %+v", v)
	}
	if v, _ := cl.DoStrings("EXPIRE", "p", "60"); v.Int != 1 {
		t.Fatalf("EXPIRE = %+v", v)
	}
	if v, _ := cl.DoStrings("EXPIRE", "ghost", "60"); v.Int != 0 {
		t.Fatalf("EXPIRE absent = %+v", v)
	}
	// Redis semantics: a zero/negative expiry deletes the key and
	// replies 1; a non-integer argument is an error.
	if v, _ := cl.DoStrings("EXPIRE", "p", "-5"); v.Int != 1 {
		t.Fatalf("EXPIRE negative = %+v", v)
	}
	if v, _ := cl.DoStrings("TTL", "p"); v.Int != -2 {
		t.Fatalf("TTL after negative EXPIRE = %+v, want -2 (deleted)", v)
	}
	if v, _ := cl.DoStrings("EXPIRE", "ghost", "0"); v.Int != 0 {
		t.Fatalf("EXPIRE 0 on absent key = %+v", v)
	}
	if v, _ := cl.DoStrings("EXPIRE", "k", "soon"); !v.IsError() {
		t.Fatalf("EXPIRE non-integer = %+v", v)
	}
}

// TestAutoSplitOnSustainedHeat: sustained skewed load must double the
// tenant's partitions through MonitorTrafficOnce alone — no manual
// SplitTenantPartitions — and the data survives the rehash.
func TestAutoSplitOnSustainedHeat(t *testing.T) {
	c := newCluster(t, ClusterConfig{
		Nodes:              3,
		HeatSplitThreshold: 50, // ops/sec, decayed
		HeatSplitWindows:   2,
	})
	tn, err := c.CreateTenant(TenantSpec{
		Name: "skewed", QuotaRU: 1e9, Partitions: 2,
		// Cache off so every read registers as data-plane heat.
		DisableProxyCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()
	hot := []byte("the-hot-key")
	if err := cl.Set(bg, hot, []byte("v")); err != nil {
		t.Fatal(err)
	}
	hammer := func() {
		for i := 0; i < 3000; i++ {
			if _, err := cl.Get(bg, hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	hammer()
	if split := c.MonitorTrafficOnce(time.Second); len(split) != 0 {
		t.Fatalf("split on the first hot cycle: %v (want sustained heat)", split)
	}
	hammer()
	split := c.MonitorTrafficOnce(time.Second)
	if len(split) != 1 || split[0] != "skewed" {
		t.Fatalf("second cycle split = %v, want [skewed]", split)
	}
	if n, _ := c.Meta.NumPartitions("skewed"); n != 4 {
		t.Fatalf("partitions after auto split = %d, want 4", n)
	}
	if v, err := cl.Get(bg, hot); err != nil || string(v) != "v" {
		t.Fatalf("hot key unreadable after auto split: %q, %v", v, err)
	}
}

// TestClientHotKeysAndPersist: the client surface over the new
// subsystem — HotKeys aggregation and Persist TTL removal.
func TestClientHotKeysAndPersist(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3, HotSampleRate: 1})
	tn, err := c.CreateTenant(TenantSpec{
		Name: "api", QuotaRU: 1e9, Partitions: 2, DisableProxyCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()
	cl.Set(bg, []byte("feverish"), []byte("v"))
	for i := 0; i < 150; i++ {
		if _, err := cl.Get(bg, []byte("feverish")); err != nil {
			t.Fatal(err)
		}
	}
	hot, err := cl.HotKeys(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 || string(hot[0].Key) != "feverish" {
		t.Fatalf("HotKeys = %+v, want feverish first", hot)
	}

	cl.Set(bg, []byte("m"), []byte("v"), WithTTL(time.Hour))
	removed, err := cl.Persist(bg, []byte("m"))
	if err != nil || !removed {
		t.Fatalf("Persist = %v, %v; want removed", removed, err)
	}
	if _, hasTTL, _ := cl.TTL(bg, []byte("m")); hasTTL {
		t.Fatal("TTL survived Persist")
	}
	if removed, err := cl.Persist(bg, []byte("m")); err != nil || removed {
		t.Fatalf("second Persist = %v, %v; want false", removed, err)
	}
	if _, err := cl.Persist(bg, []byte("ghost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Persist ghost = %v", err)
	}
}

// TestHotKeysSeesCacheAbsorbedKeys: once mitigation caches a hot key,
// its reads stop reaching the data plane — HOTKEYS must still surface
// it via the proxy fleet's own admission sketches.
func TestHotKeysSeesCacheAbsorbedKeys(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{
		Name: "absorb", QuotaRU: 1e9, Partitions: 2, // proxy cache ON
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()
	cl.Set(bg, []byte("absorbed"), []byte("v"))
	for i := 0; i < 200; i++ { // nearly all of these are AU-LRU hits
		if _, err := cl.Get(bg, []byte("absorbed")); err != nil {
			t.Fatal(err)
		}
	}
	if hits := tn.Fleet().AggregateStats().CacheHits; hits < 150 {
		t.Fatalf("cache hits = %d, want the workload absorbed", hits)
	}
	hot, err := cl.HotKeys(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 || string(hot[0].Key) != "absorbed" {
		t.Fatalf("HotKeys = %+v, want the cache-absorbed key first", hot)
	}
	if hot[0].Count < 100 {
		t.Fatalf("absorbed count = %v, want the offered load, not the origin trickle", hot[0].Count)
	}
}
