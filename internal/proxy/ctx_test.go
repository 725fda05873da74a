package proxy

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/partition"
)

// TestPreCanceledNeverTouchesQuotaOrCache: a context that is already
// done fails at the proxy's front door — no cache hit is served, no
// quota token is spent, no DataNode is contacted.
func TestPreCanceledNeverTouchesQuotaOrCache(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	p.Put(bg, []byte("k"), []byte("v"), 0) // cached by write-through? (gated) — irrelevant

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Get(ctx, []byte("k")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get err = %v, want context.Canceled", err)
	}
	if err := p.Put(ctx, []byte("k2"), []byte("v"), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put err = %v, want context.Canceled", err)
	}
	_, errs := p.BatchGet(ctx, [][]byte{[]byte("k")})
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("BatchGet err = %v, want context.Canceled", errs[0])
	}
	if _, err := p.Get(bg, []byte("k2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("canceled Put reached the data plane: %v", err)
	}
	st := p.Stats()
	// The canceled ops must not have moved the success/rejected
	// counters (the two background ops above account for Success).
	if st.Rejected != 0 {
		t.Fatalf("canceled ops consumed quota admission: %+v", st)
	}
}

// TestWithRouteHonorsCtxBetweenRetries: when the first attempt fails
// with a routing-shaped error and the context ends before the retry,
// the sentinel surfaces instead of a second doomed dispatch.
func TestWithRouteHonorsCtxBetweenRetries(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	err := p.withRoute(ctx, []byte("k"), func(node *datanode.Node, route partition.Route) error {
		attempts++
		cancel() // the caller gives up while the attempt is in flight
		return datanode.ErrNodeDown
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("retried a canceled request: %d attempts", attempts)
	}
}

// TestScanDeadlineMidPageReturnsResumableCursor: a deadline that
// expires between partition sub-scans hands back the gathered keys, a
// cursor at the unfinished spot, AND the context sentinel; resuming
// with a fresh context completes the traversal with no key lost.
func TestScanDeadlineMidPageReturnsResumableCursor(t *testing.T) {
	// Slow sub-scans: each partition's I/O stage burns ~40ms, so a
	// ~60ms deadline expires after the first sub-scan completes.
	m := newSlowScanStack(t, 40*time.Millisecond)
	p := m.proxy
	const n = 40
	for i := 0; i < n; i++ {
		if err := p.Put(bg, []byte(fmt.Sprintf("k%03d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	page, err := p.Scan(ctx, "", ScanOptions{Count: n, KeysOnly: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if page.Cursor == "" {
		t.Fatal("expired scan returned no resumable cursor")
	}
	if len(page.Keys) == 0 {
		t.Fatal("expired scan dropped the sub-scan it already paid for")
	}

	// Resume with a fresh context: every key surfaces exactly once
	// across the two stretches.
	seen := map[string]bool{}
	for _, k := range page.Keys {
		seen[string(k)] = true
	}
	cursor := page.Cursor
	for cursor != "" {
		pg, err := p.Scan(bg, cursor, ScanOptions{Count: n, KeysOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range pg.Keys {
			seen[string(k)] = true
		}
		cursor = pg.Cursor
	}
	if len(seen) != n {
		t.Fatalf("resumed traversal found %d/%d keys", len(seen), n)
	}
}

// slowScanStack pairs a proxy with nodes whose reads are instant but
// whose scans burn ioTime per sub-scan page.
type slowScanStack struct {
	proxy *Proxy
}

func newSlowScanStack(t *testing.T, ioTime time.Duration) *slowScanStack {
	t.Helper()
	m := newMetaWithNodes(t, datanode.CostModel{
		IOReadTime: ioTime,
	})
	p, err := New(Config{
		Tenant:      "t1",
		ID:          "p0",
		Meta:        m,
		EnableCache: false,
		ProxyQuota:  1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &slowScanStack{proxy: p}
}

// TestShedCountsInProxyStats: a data-plane deadline shed is surfaced
// to the caller as the shed sentinel and lands in the proxy's Shed
// counter, not Errors.
func TestShedCountsInProxyStats(t *testing.T) {
	m := newMetaWithNodes(t, datanode.CostModel{
		CPUTime:     4 * time.Millisecond,
		IOReadTime:  4 * time.Millisecond,
		IOWriteTime: 4 * time.Millisecond,
	})
	p, err := New(Config{Tenant: "t1", ID: "p0", Meta: m, ProxyQuota: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the nodes' service-time estimates.
	for i := 0; i < 6; i++ {
		if err := p.Put(bg, []byte{byte(i)}, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	shed := false
	for i := 0; i < 6 && !shed; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		_, err = p.Get(ctx, []byte{byte(i)})
		cancel()
		shed = errors.Is(err, datanode.ErrDeadlineShed)
	}
	if !shed {
		t.Fatalf("no request was shed against a warmed-up slow node (last err %v)", err)
	}
	st := p.Stats()
	if st.Shed == 0 {
		t.Fatalf("shed not counted: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("shed miscounted as errors: %+v", st)
	}
}

// newMetaWithNodes builds the 3-node control plane with a custom cost
// model and one 2-partition tenant "t1".
func newMetaWithNodes(t *testing.T, cost datanode.CostModel) *metaserver.Meta {
	t.Helper()
	m := metaserver.New(metaserver.Config{Replicas: 3})
	t.Cleanup(m.Close)
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{
			ID:   fmt.Sprintf("cnode-%d", i),
			Cost: cost,
		})
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{
		Name: "t1", QuotaRU: 1e9, Partitions: 2, Proxies: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return m
}
