package proxy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
)

// newQuotaStack mirrors newStack but with partition-level admission
// enabled on the DataNodes, so sub-scan throttling is exercised.
func newQuotaStack(t *testing.T, quotaRU float64) (*metaserver.Meta, *Proxy) {
	t.Helper()
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{
			ID: fmt.Sprintf("qnode-%d", i),
		})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{
		Name: "t1", QuotaRU: quotaRU, Partitions: 2, Proxies: 1,
	}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tenant:      "t1",
		ID:          "p0",
		Meta:        m,
		EnableCache: true,
		ProxyQuota:  quotaRU,
		CacheTTL:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

// scanAll drives a proxy scan to completion, returning every key seen
// (with duplicates) and the number of pages.
func scanAll(t *testing.T, p *Proxy, opts ScanOptions) ([]string, int) {
	t.Helper()
	var keys []string
	cursor := ""
	pages := 0
	for {
		page, err := p.Scan(bg, cursor, opts)
		if err != nil {
			t.Fatalf("Scan(%q): %v", cursor, err)
		}
		pages++
		for _, k := range page.Keys {
			keys = append(keys, string(k))
		}
		if page.Cursor == "" {
			return keys, pages
		}
		cursor = page.Cursor
	}
}

func TestProxyScanFullTraversal(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	const n = 40
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := p.Put(bg, []byte(k), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	keys, pages := scanAll(t, p, ScanOptions{Count: 7})
	if pages < n/7 {
		t.Fatalf("pages = %d, want several with count 7", pages)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key %q returned twice without topology change", k)
		}
		seen[k] = true
	}
	for k := range want {
		if !seen[k] {
			t.Fatalf("key %q missing from traversal", k)
		}
	}
	if len(seen) != n {
		t.Fatalf("saw %d keys, want %d", len(seen), n)
	}
}

func TestProxyScanMatchFilters(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	for i := 0; i < 10; i++ {
		p.Put(bg, []byte(fmt.Sprintf("user:%d", i)), []byte("v"), 0)
		p.Put(bg, []byte(fmt.Sprintf("sess:%d", i)), []byte("v"), 0)
	}
	keys, _ := scanAll(t, p, ScanOptions{Count: 3, Match: "user:*"})
	if len(keys) != 10 {
		t.Fatalf("matched %d keys, want 10: %v", len(keys), keys)
	}
	for _, k := range keys {
		if k[:5] != "user:" {
			t.Fatalf("MATCH leaked %q", k)
		}
	}
}

func TestProxyScanBadCursor(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	for _, cur := range []string{"bogus", "p-1:", "pX:00", "p0:zz"} {
		if _, err := p.Scan(bg, cur, ScanOptions{}); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("Scan(%q) err = %v, want ErrBadCursor", cur, err)
		}
	}
}

// TestProxyScanThrottledPartialPage: when a later partition's sub-scan
// is rejected by its partition quota mid-page, the page returns the
// entries already gathered plus a cursor positioned at the unfinished
// partition — and resuming after the quota recovers completes the
// traversal with no key lost.
func TestProxyScanThrottledPartialPage(t *testing.T) {
	m, p := newQuotaStack(t, 1e9)
	const n = 30
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := p.Put(bg, []byte(k), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	// Starve partition 1's quota so its sub-scan rejects. (The stack
	// provisions 2 partitions; a full-keyspace page visits 0 then 1.)
	view, err := m.RoutingView("t1")
	if err != nil {
		t.Fatal(err)
	}
	route := view.Partitions[1]
	node, err := m.Node(route.Primary)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SetPartitionQuota(route.Partition, 0.001); err != nil {
		t.Fatal(err)
	}

	page, err := p.Scan(bg, "", ScanOptions{Count: 2 * n})
	if err != nil {
		t.Fatalf("Scan: %v (want partial page, not error)", err)
	}
	if len(page.Keys) == 0 {
		t.Fatal("partial page carried no keys")
	}
	if page.Cursor == "" {
		t.Fatal("throttled page lost its cursor")
	}
	cur, derr := decodeCursor(page.Cursor)
	if derr != nil || cur.part != 1 {
		t.Fatalf("cursor = %q (part %d), want partition 1", page.Cursor, cur.part)
	}

	// Quota recovers; the cursor resumes and the traversal completes.
	if err := node.SetPartitionQuota(route.Partition, 1e9); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range page.Keys {
		seen[string(k)] = true
	}
	cursor := page.Cursor
	for cursor != "" {
		next, err := p.Scan(bg, cursor, ScanOptions{Count: 2 * n})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range next.Keys {
			seen[string(k)] = true
		}
		cursor = next.Cursor
	}
	for k := range want {
		if !seen[k] {
			t.Fatalf("key %q lost across the throttled page boundary", k)
		}
	}
}

// TestProxyScanThrottledEmptyPageErrors: a throttle with zero progress
// surfaces as ErrThrottled so callers do not spin.
func TestProxyScanThrottledEmptyPageErrors(t *testing.T) {
	m, p := newQuotaStack(t, 1e9)
	if err := p.Put(bg, []byte("k"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	view, err := m.RoutingView("t1")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range view.Partitions {
		node, err := m.Node(route.Primary)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.SetPartitionQuota(route.Partition, 0.001); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Scan(bg, "", ScanOptions{Count: 64}); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
}

// TestProxyScanTombstoneDesertBoundedPage: a keyspace that is almost
// all tombstones must not turn one small-COUNT page into an unbounded
// walk — the page returns early with a usable cursor, and repeated
// pages still complete the traversal.
func TestProxyScanTombstoneDesertBoundedPage(t *testing.T) {
	_, p := newStack(t, 1e9, nil)
	const dead = 200
	for i := 0; i < dead; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if err := p.Put(bg, k, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if err := p.Delete(bg, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Put(bg, []byte("zz-live"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	page, err := p.Scan(bg, "", ScanOptions{Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With count 1 the page's examine budget is scanExamineFactor; 200
	// tombstones cannot be crossed in one call.
	if len(page.Keys) > 0 && string(page.Keys[0]) == "zz-live" {
		t.Fatal("page crossed the whole tombstone desert in one call")
	}
	if page.Cursor == "" {
		t.Fatal("bounded page lost its cursor")
	}
	// The traversal still completes across pages.
	keys, pages := scanAll(t, p, ScanOptions{Count: 1})
	if len(keys) != 1 || keys[0] != "zz-live" {
		t.Fatalf("traversal found %v, want only zz-live", keys)
	}
	if pages < dead/scanExamineFactor {
		t.Fatalf("pages = %d, want several bounded pages", pages)
	}
}

// TestProxyScanInterleavedWritesAndDeletes: keys stable for the whole
// traversal always appear; keys deleted ahead of the cursor do not.
func TestProxyScanInterleavedWritesAndDeletes(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	const n = 40
	for i := 0; i < n; i++ {
		if err := p.Put(bg, []byte(fmt.Sprintf("key-%03d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	page, err := p.Scan(bg, "", ScanOptions{Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range page.Keys {
		seen[string(k)] = true
	}
	// Mutate mid-traversal: delete one already-seen key and one not yet
	// seen; add fresh keys.
	var deletedSeen, deletedUnseen string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if seen[k] && deletedSeen == "" {
			deletedSeen = k
		}
		if !seen[k] && deletedUnseen == "" {
			deletedUnseen = k
		}
	}
	if deletedSeen == "" || deletedUnseen == "" {
		t.Skip("first page saw none or all keys; cannot exercise both cases")
	}
	p.Delete(bg, []byte(deletedSeen))
	p.Delete(bg, []byte(deletedUnseen))
	p.Put(bg, []byte("zzz-new"), []byte("v"), 0)

	cursor := page.Cursor
	for cursor != "" {
		next, err := p.Scan(bg, cursor, ScanOptions{Count: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range next.Keys {
			seen[string(k)] = true
		}
		cursor = next.Cursor
	}
	if seen[deletedUnseen] {
		t.Fatalf("key %q deleted ahead of the cursor still appeared", deletedUnseen)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if k == deletedSeen || k == deletedUnseen {
			continue
		}
		if !seen[k] {
			t.Fatalf("stable key %q missing", k)
		}
	}
}
