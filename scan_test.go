package abase

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/resp"
)

func scanTenant(t *testing.T, cfg ClusterConfig, spec TenantSpec) (*Cluster, *Client) {
	t.Helper()
	c := newCluster(t, cfg)
	tenant, err := c.CreateTenant(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c, tenant.Client()
}

func TestClientScanKeysDBSize(t *testing.T) {
	_, cl := scanTenant(t, ClusterConfig{Nodes: 3},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 4, Proxies: 2})
	const users, sessions = 30, 20
	for i := 0; i < users; i++ {
		if err := cl.Set(bg, []byte(fmt.Sprintf("user:%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sessions; i++ {
		if err := cl.Set(bg, []byte(fmt.Sprintf("sess:%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Cursor pages cover everything exactly once (no topology change).
	seen := map[string]int{}
	cursor := ""
	for {
		keys, next, err := cl.Scan(bg, cursor, "", 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			seen[string(k)]++
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(seen) != users+sessions {
		t.Fatalf("scan saw %d distinct keys, want %d", len(seen), users+sessions)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %q seen %d times", k, c)
		}
	}

	keys, err := cl.Keys(bg, "user:*")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != users {
		t.Fatalf("Keys(user:*) = %d, want %d", len(keys), users)
	}
	n, err := cl.DBSize(bg)
	if err != nil {
		t.Fatal(err)
	}
	if n != users+sessions {
		t.Fatalf("DBSize = %d, want %d", n, users+sessions)
	}
}

// TestClientScanSurvivesPartitionSplit is the acceptance test for the
// distributed cursor: a traversal that starts before a partition split
// and finishes after it still returns every stable key at least once.
// A doubling split only rehashes keys to strictly higher partition
// indexes, so completed partitions stay completed and the in-progress
// one restarts from its resume key.
func TestClientScanSurvivesPartitionSplit(t *testing.T) {
	c, cl := scanTenant(t, ClusterConfig{Nodes: 3},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 2, Proxies: 1})
	const n = 120
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if err := cl.Set(bg, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}

	seen := map[string]bool{}
	cursor := ""
	pages := 0
	split := false
	for {
		keys, next, err := cl.Scan(bg, cursor, "", 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, k := range keys {
			seen[string(k)] = true
		}
		if pages == 3 && !split {
			// Split mid-traversal: 2 partitions become 4 and roughly
			// half the keys rehash into the new ones.
			if err := c.Meta.SplitTenantPartitions("app"); err != nil {
				t.Fatal(err)
			}
			split = true
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if !split {
		t.Fatal("scan finished before the split fired; lower the page size")
	}
	if got, err := c.Meta.NumPartitions("app"); err != nil || got != 4 {
		t.Fatalf("NumPartitions = %d, %v; want 4", got, err)
	}
	for k := range want {
		if !seen[k] {
			t.Fatalf("key %q lost across the partition split", k)
		}
	}
	// And the keyspace is still fully consistent afterwards.
	size, err := cl.DBSize(bg)
	if err != nil {
		t.Fatal(err)
	}
	if size != n {
		t.Fatalf("DBSize after split = %d, want %d", size, n)
	}
}

// TestClientScanAgreesWithGetOnTTL: SCAN/KEYS/DBSIZE and GET make the
// same call on expired records, through the whole stack. TTL expiry
// has seconds resolution, so the test drives a simulated clock.
func TestClientScanAgreesWithGetOnTTL(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	// The proxy cache stays ON: TTL-bearing values must never be served
	// from the AU-LRU, so expiry is observable through the full stack.
	_, cl := scanTenant(t, ClusterConfig{Nodes: 3, Clock: sim},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 2, Proxies: 1})
	if err := cl.Set(bg, []byte("ttl"), []byte("v"), WithTTL(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(bg, []byte("live"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Read through every path that might cache the value.
	if _, err := cl.Get(bg, []byte("ttl")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MGet(bg, []byte("ttl"), []byte("live")); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Hour)

	if _, err := cl.Get(bg, []byte("ttl")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ttl) after expiry = %v, want ErrNotFound", err)
	}
	size, err := cl.DBSize(bg)
	if err != nil {
		t.Fatal(err)
	}
	if size != 1 {
		t.Fatalf("DBSize = %d, want 1 (expired key must not count)", size)
	}
	keys, err := cl.Keys(bg, "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || string(keys[0]) != "live" {
		t.Fatalf("Keys = %v, want only 'live'", keys)
	}
}

// TestSplitPreservesTTL: the split rehash rewrites moved records with
// their deadline instead of silently making them immortal, so expiry
// stays consistent with un-moved keys after a split, on every replica.
func TestSplitPreservesTTL(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	c, cl := scanTenant(t, ClusterConfig{Nodes: 3, Clock: sim},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 2, Proxies: 1})
	const n = 20
	for i := 0; i < n; i++ {
		if err := cl.Set(bg, []byte(fmt.Sprintf("ttl:%03d", i)), []byte("v"), WithTTL(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Set(bg, []byte(fmt.Sprintf("perm:%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Doubling 2 -> 4 partitions rehashes roughly half the keys.
	if err := c.Meta.SplitTenantPartitions("app"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("ttl:%03d", i))
		ttl, hasTTL, err := cl.TTL(bg, k)
		if err != nil || !hasTTL || ttl <= 0 {
			t.Fatalf("TTL(%s) after split = %v, %v, %v; want a live expiry", k, ttl, hasTTL, err)
		}
	}
	replicasAgree(t, c, "app") // the moved TTL'd records are live here
	sim.Advance(2 * time.Hour)
	size, err := cl.DBSize(bg)
	if err != nil {
		t.Fatal(err)
	}
	if size != n {
		t.Fatalf("DBSize after expiry = %d, want %d (ttl: keys must lapse, perm: keys must stay)", size, n)
	}
	if _, err := cl.Get(bg, []byte("ttl:000")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ttl:000) after expiry = %v, want ErrNotFound", err)
	}
	replicasAgree(t, c, "app")
}

func TestServeScanKeysDBSize(t *testing.T) {
	c, cl := scanTenant(t, ClusterConfig{Nodes: 3},
		TenantSpec{Name: "app", QuotaRU: 1e8, Partitions: 2, Proxies: 1})
	_ = cl
	addr, srv, err := c.Serve("127.0.0.1:0", "app")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	for i := 0; i < 12; i++ {
		if v, _ := rc.DoStrings("SET", fmt.Sprintf("user:%02d", i), "v"); v.Text() != "OK" {
			t.Fatalf("SET = %+v", v)
		}
	}
	for i := 0; i < 5; i++ {
		if v, _ := rc.DoStrings("SET", fmt.Sprintf("tmp:%02d", i), "v"); v.Text() != "OK" {
			t.Fatalf("SET = %+v", v)
		}
	}

	// SCAN loop with the Redis cursor convention: start at 0, stop at 0,
	// every cursor a decimal integer (typed clients parse it numerically).
	seen := map[string]bool{}
	cursor := "0"
	for {
		v, err := rc.DoStrings("SCAN", cursor, "MATCH", "user:*", "COUNT", "4")
		if err != nil {
			t.Fatal(err)
		}
		if v.IsError() || len(v.Array) != 2 {
			t.Fatalf("SCAN reply = %+v", v)
		}
		for _, k := range v.Array[1].Array {
			seen[k.Text()] = true
		}
		cursor = v.Array[0].Text()
		for _, ch := range cursor {
			if ch < '0' || ch > '9' {
				t.Fatalf("cursor %q is not a decimal integer", cursor)
			}
		}
		if cursor == "0" {
			break
		}
	}
	if len(seen) != 12 {
		t.Fatalf("SCAN MATCH saw %d keys, want 12: %v", len(seen), seen)
	}
	for k := range seen {
		if k[:5] != "user:" {
			t.Fatalf("MATCH leaked %q", k)
		}
	}

	if v, _ := rc.DoStrings("KEYS", "tmp:*"); v.IsError() || len(v.Array) != 5 {
		t.Fatalf("KEYS tmp:* = %+v", v)
	}
	if v, _ := rc.DoStrings("DBSIZE"); v.Int != 17 {
		t.Fatalf("DBSIZE = %+v, want 17", v)
	}

	// An absurd COUNT is clamped, not overflowed: the page returns the
	// whole (small) keyspace and terminates.
	if v, _ := rc.DoStrings("SCAN", "0", "COUNT", "300000000000000000"); v.IsError() ||
		len(v.Array) != 2 || v.Array[0].Text() != "0" || len(v.Array[1].Array) != 17 {
		t.Fatalf("SCAN with huge COUNT = %+v, want full single-page traversal", v)
	}

	// Error shapes.
	if v, _ := rc.DoStrings("SCAN", "not-a-cursor"); !v.IsError() {
		t.Fatalf("SCAN bad cursor = %+v, want error", v)
	}
	if v, _ := rc.DoStrings("SCAN", "0", "COUNT", "nope"); !v.IsError() {
		t.Fatalf("SCAN bad count = %+v, want error", v)
	}
	if v, _ := rc.DoStrings("SCAN", "0", "BOGUS"); !v.IsError() {
		t.Fatalf("SCAN bad option = %+v, want error", v)
	}
	if v, _ := rc.DoStrings("DBSIZE", "x"); !v.IsError() {
		t.Fatalf("DBSIZE with arg = %+v, want error", v)
	}
}
