package proxy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/metrics"
)

// This file is the proxy plane's conformance table: every keyed
// operation kind, as one call on one key, held to the one pipeline
// contract — what the executors promise, they promise for all (the
// DataNode's table is internal/datanode/ctx_test.go).

// conformKey is the key every row operates on.
var conformKey = []byte("ck")

// first returns a one-key batch's only error.
func first(errs []error) error { return errs[0] }

// seedPlain stores the key as an expiring plain value, so reads of it
// miss the DataNode's SA-LRU (which declines expiring values) and bill
// more than zero RU.
func seedPlain(t *testing.T, p *Proxy) {
	t.Helper()
	if err := p.Put(bg, conformKey, []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	p.cfg.Meta.FlushReplication() // the follower-read row needs it applied
}

// seedHash stores the key as a one-field hash — expiring, like
// seedPlain and for the same reason (field writes keep the key's TTL).
func seedHash(t *testing.T, p *Proxy) {
	t.Helper()
	if _, err := p.HSet(bg, conformKey, "f", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := p.Expire(bg, conformKey, time.Hour); err != nil {
		t.Fatal(err)
	}
}

// nodesBilled sums what the DataNodes have billed the test tenant.
func nodesBilled(p *Proxy) (total float64) {
	for _, id := range p.cfg.Meta.Nodes() {
		n, _ := p.cfg.Meta.Node(id)
		total += n.TenantStats("t1").RUUsed
	}
	return total
}

// An absent key shows as one of:
const (
	absentNotFound = "ErrNotFound"     // the proxy's sentinel, counted once in Errors
	absentAnswer   = "exists=false"    // a served answer: Success, no error
	absentCreates  = "n/a: creates it" // writes do not require the key
	absentEmpty    = "n/a: empty hash" // an absent hash reads as the empty hash
	absentNoKey    = "n/a: takes no key"
)

// proxyOps is every keyed operation kind.
var proxyOps = []struct {
	name string
	call func(ctx context.Context, p *Proxy) error
	// seed puts the key in the state the success row needs (nil: none).
	seed   func(t *testing.T, p *Proxy)
	absent string
	// batch marks the rows run by the batch executor, whose retry pass
	// reports a failing node on both attempts.
	batch bool
}{
	{name: "Get", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.Get(ctx, conformKey)
		return err
	}},
	{name: "GetPref(ReadFollower)", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.GetPref(ctx, conformKey, ReadFollower)
		return err
	}},
	{name: "Put", absent: absentCreates, call: func(ctx context.Context, p *Proxy) error {
		return p.Put(ctx, conformKey, []byte("v"), 0)
	}},
	{name: "PutWith", absent: absentCreates, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.PutWith(ctx, conformKey, []byte("v"), PutOptions{Cond: CondNX})
		return err
	}},
	{name: "Delete", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		return p.Delete(ctx, conformKey)
	}},
	{name: "TTL", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, _, err := p.TTL(ctx, conformKey)
		return err
	}},
	{name: "Expire", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		return p.Expire(ctx, conformKey, time.Hour)
	}},
	{name: "Persist", seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.Persist(ctx, conformKey)
		return err
	}},
	{name: "HSetMulti", absent: absentCreates, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.HSetMulti(ctx, conformKey, []FieldValue{{Field: "f", Value: []byte("v")}})
		return err
	}},
	{name: "HGet", seed: seedHash, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.HGet(ctx, conformKey, "f")
		return err
	}},
	{name: "HLen", seed: seedHash, absent: absentEmpty, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.HLen(ctx, conformKey)
		return err
	}},
	{name: "HGetAll", seed: seedHash, absent: absentEmpty, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.HGetAll(ctx, conformKey)
		return err
	}},
	{name: "HDel", seed: seedHash, absent: absentEmpty, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.HDel(ctx, conformKey, "f")
		return err
	}},
	{name: "BatchGet", batch: true, seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		_, errs := p.BatchGet(ctx, [][]byte{conformKey})
		return first(errs)
	}},
	{name: "BatchPut", batch: true, absent: absentCreates, call: func(ctx context.Context, p *Proxy) error {
		return first(p.BatchPut(ctx, []KV{{Key: conformKey, Value: []byte("v")}}))
	}},
	{name: "BatchDelete", batch: true, seed: seedPlain, absent: absentNotFound, call: func(ctx context.Context, p *Proxy) error {
		return first(p.BatchDelete(ctx, [][]byte{conformKey}))
	}},
	{name: "BatchExists", batch: true, seed: seedPlain, absent: absentAnswer, call: func(ctx context.Context, p *Proxy) error {
		_, errs := p.BatchExists(ctx, [][]byte{conformKey})
		return first(errs)
	}},
	{name: "Scan", absent: absentNoKey, call: func(ctx context.Context, p *Proxy) error {
		_, err := p.Scan(ctx, "", ScanOptions{})
		return err
	}},
}

// conformStack builds a 2-partition tenant "t1" on 4 nodes — one more
// than the replica count, so the two partitions get different primaries
// — and one proxy with the AU-LRU and the proxy quota ON. tenantRU sets
// the DataNodes' partition quotas; the proxy's own quota is proxyRU.
func conformStack(t *testing.T, tenantRU, proxyRU float64, node func(*datanode.Config)) *Proxy {
	t.Helper()
	// The health monitor never confirms a suspect here: a dead primary
	// stays "not yet failed over" for as long as a table needs it.
	m := metaserver.New(metaserver.Config{Replicas: 3, DownAfterProbes: 1 << 30})
	t.Cleanup(m.Close)
	for i := 0; i < 4; i++ {
		cfg := datanode.Config{
			ID: fmt.Sprintf("conf-node-%d", i),
		}
		if node != nil {
			node(&cfg)
		}
		n := datanode.New(cfg)
		t.Cleanup(func() { n.Close() })
		m.RegisterNode(n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{Name: "t1", QuotaRU: tenantRU, Partitions: 2, Proxies: 1}); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tenant: "t1", ID: "p0", Meta: m,
		EnableCache: true, ProxyQuota: proxyRU, CacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// books is everything a request may move at the proxy.
type books struct {
	stats             Stats
	latencies         uint64 // observations in the latency histogram
	charged, refunded float64
	admitted          int64  // limiter admissions
	refreshes         uint64 // route-cache invalidations
}

func readBooks(p *Proxy) books {
	b := books{stats: p.Stats(), latencies: metrics.SumRequests(p.reqs).Latency.Count()}
	b.stats.LatencyP99 = 0
	p.routes.mu.RLock()
	b.refreshes = p.routes.gen
	p.routes.mu.RUnlock()
	b.charged, b.refunded = p.limiter.RUTotals()
	b.admitted = p.limiter.Admitted()
	return b
}

// moved is the books' change since before. The AU-LRU lookup counters
// are dropped: which rows consult the cache is policy, not pipeline.
func (b books) moved(before books) books {
	b.stats.Success -= before.stats.Success
	b.stats.Rejected -= before.stats.Rejected
	b.stats.Shed -= before.stats.Shed
	b.stats.Errors -= before.stats.Errors
	b.stats.CacheHits, b.stats.CacheMiss, b.stats.CacheRefreshes = 0, 0, 0
	b.latencies -= before.latencies
	b.charged -= before.charged
	b.refunded -= before.refunded
	b.admitted -= before.admitted
	b.refreshes -= before.refreshes
	return b
}

// refundedInFull reports a charge taken and given back whole.
func (b books) refundedInFull() bool {
	return b.charged > 0 && b.refunded > b.charged*(1-1e-9) && b.refunded < b.charged*(1+1e-9)
}

// eachOp runs check for every row against one shared proxy, handing it
// the call's error and what the call moved.
func eachOp(t *testing.T, p *Proxy, ctx func() (context.Context, context.CancelFunc), check func(t *testing.T, name string, batch bool, err error, d books)) {
	t.Helper()
	for _, op := range proxyOps {
		c, cancel := ctx()
		before := readBooks(p)
		err := op.call(c, p)
		cancel()
		check(t, op.name, op.batch, err, readBooks(p).moved(before))
	}
}

func background() (context.Context, context.CancelFunc) { return bg, func() {} }

// TestProxyOpsConform holds every operation kind to the pipeline
// contract, one subtest per way a request can end.
func TestProxyOpsConform(t *testing.T) {
	t.Run("pre-cancelled", func(t *testing.T) {
		// A context already done touches nothing: no ledger entry, no
		// sketch heat, no cache lookup, no counter, no DataNode.
		p := conformStack(t, 1e9, 1e9, nil)
		canceled := func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			return ctx, cancel
		}
		eachOp(t, p, canceled, func(t *testing.T, name string, _ bool, err error, d books) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s err = %v, want context.Canceled", name, err)
			}
			if d != (books{}) {
				t.Errorf("%s moved the books: %+v", name, d)
			}
		})
		if hot := p.LocalHotKeys(0); len(hot) != 0 {
			t.Errorf("pre-cancelled requests heated the sketch: %+v", hot)
		}
		if st := p.Stats(); st.CacheHits+st.CacheMiss != 0 || p.cache.Len() != 0 {
			t.Errorf("pre-cancelled requests reached the AU-LRU: %d hits %d misses %d entries", st.CacheHits, st.CacheMiss, p.cache.Len())
		}
		for _, id := range p.cfg.Meta.Nodes() {
			n, _ := p.cfg.Meta.Node(id)
			if st := n.TenantStats("t1"); st.Success+st.Errors+st.Throttled+st.Shed != 0 {
				t.Errorf("pre-cancelled requests reached %s: %+v", id, st)
			}
		}
	})

	t.Run("bucket exhausted", func(t *testing.T) {
		// The whole burst is below the cheapest request: refused at the
		// proxy, counted as Rejected, and nothing else happens.
		p := conformStack(t, 1e9, 1e-9, nil)
		eachOp(t, p, background, func(t *testing.T, name string, batch bool, err error, d books) {
			if !errors.Is(err, ErrThrottled) {
				t.Errorf("%s err = %v, want ErrThrottled", name, err)
			}
			want := books{stats: Stats{Rejected: 1}}
			if batch {
				want.latencies = 1 // a batch times its refusals too
			}
			if d != want {
				t.Errorf("%s moved %+v, want %+v", name, d, want)
			}
		})
	})

	t.Run("primary dead", func(t *testing.T) {
		// Every node is down and none is failed over yet: the routing
		// error surfaces after exactly one retry, the charge comes back
		// whole, and the failure counts once.
		p := conformStack(t, 1e9, 1e9, nil)
		for _, id := range p.cfg.Meta.Nodes() {
			n, _ := p.cfg.Meta.Node(id)
			n.SetDown(true)
		}
		eachOp(t, p, background, func(t *testing.T, name string, batch bool, err error, d books) {
			if !errors.Is(err, datanode.ErrNodeDown) {
				t.Errorf("%s err = %v, want datanode.ErrNodeDown", name, err)
			}
			// Each failed pass that reports its node drops the route
			// cache once: the point path reports the attempt it retries,
			// a batch reports both passes. More would be a second retry.
			wantRefreshes := uint64(1)
			if batch {
				wantRefreshes = 2
			}
			if d.refreshes != wantRefreshes {
				t.Errorf("%s refreshed routes %d times, want %d (exactly one retry)", name, d.refreshes, wantRefreshes)
			}
			if !d.refundedInFull() {
				t.Errorf("%s charged %v refunded %v, want the charge returned", name, d.charged, d.refunded)
			}
			if want := (Stats{Errors: 1}); d.stats != want {
				t.Errorf("%s counted %+v, want %+v", name, d.stats, want)
			}
		})
	})

	t.Run("schedulers closed", func(t *testing.T) {
		// Nodes turning requests away as they close did no work.
		p := conformStack(t, 1e9, 1e9, nil)
		for _, id := range p.cfg.Meta.Nodes() {
			n, _ := p.cfg.Meta.Node(id)
			n.Scheduler().Close()
		}
		eachOp(t, p, background, func(t *testing.T, name string, _ bool, err error, d books) {
			if !errors.Is(err, datanode.ErrClosed) {
				t.Errorf("%s err = %v, want datanode.ErrClosed", name, err)
			}
			if !d.refundedInFull() {
				t.Errorf("%s charged %v refunded %v, want the charge returned", name, d.charged, d.refunded)
			}
			if want := (Stats{Errors: 1}); d.stats != want {
				t.Errorf("%s counted %+v, want %+v", name, d.stats, want)
			}
		})
	})

	t.Run("absent key", func(t *testing.T) {
		// The node probed the key: the charge stands, and the answer is
		// counted once.
		p := conformStack(t, 1e9, 1e9, nil)
		// One sized read first: a not-found read observes size 0, and an
		// estimator that has seen nothing else prices the next read at 0.
		if err := p.Put(bg, []byte("sized"), make([]byte, 2048), time.Hour); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Get(bg, []byte("sized")); err != nil {
			t.Fatal(err)
		}
		for _, op := range proxyOps {
			var want Stats
			switch op.absent {
			case absentNotFound:
				want = Stats{Errors: 1}
			case absentAnswer:
				want = Stats{Success: 1}
			default:
				t.Logf("%s: %s", op.name, op.absent)
				continue
			}
			before := readBooks(p)
			err := op.call(bg, p)
			d := readBooks(p).moved(before)
			if (op.absent == absentNotFound) != errors.Is(err, ErrNotFound) || (op.absent == absentAnswer && err != nil) {
				t.Errorf("%s err = %v, want %s", op.name, err, op.absent)
			}
			if d.charged <= 0 || d.refunded != 0 {
				t.Errorf("%s charged %v refunded %v, want the charge to stand", op.name, d.charged, d.refunded)
			}
			if d.stats != want {
				t.Errorf("%s counted %+v, want %+v", op.name, d.stats, want)
			}
		}
	})

	t.Run("partition quota exhausted", func(t *testing.T) {
		// The proxy quota is generous, the DataNodes' is not: the
		// node-side throttle reaches every caller as the proxy's own
		// sentinel, and the proxy charge stands as the throttling signal.
		p := conformStack(t, 1e-9, 1e9, nil)
		eachOp(t, p, background, func(t *testing.T, name string, _ bool, err error, d books) {
			if !errors.Is(err, ErrThrottled) {
				t.Errorf("%s err = %v, want proxy.ErrThrottled", name, err)
			}
			if d.charged <= 0 || d.refunded != 0 {
				t.Errorf("%s charged %v refunded %v, want the charge to stand", name, d.charged, d.refunded)
			}
			if d.stats.Success != 0 || d.stats.Shed != 0 || d.stats.Errors+d.stats.Rejected != 1 {
				t.Errorf("%s counted %+v, want one refusal", name, d.stats)
			}
		})
	})

	t.Run("deadline shed", func(t *testing.T) {
		// An idle node's estimated wait is its admit cost; a request
		// whose deadline is tighter is shed at the node's door — counted
		// as Shed, not as an error, and refunded.
		p := conformStack(t, 1e9, 1e9, func(c *datanode.Config) { c.AdmitCost = 5 * time.Second })
		tight := func() (context.Context, context.CancelFunc) { return context.WithTimeout(bg, 500*time.Millisecond) }
		eachOp(t, p, tight, func(t *testing.T, name string, _ bool, err error, d books) {
			if !errors.Is(err, datanode.ErrDeadlineShed) {
				t.Errorf("%s err = %v, want datanode.ErrDeadlineShed", name, err)
			}
			if !d.refundedInFull() {
				t.Errorf("%s charged %v refunded %v, want the charge returned", name, d.charged, d.refunded)
			}
			if want := (Stats{Shed: 1}); d.stats != want {
				t.Errorf("%s counted %+v, want %+v", name, d.stats, want)
			}
		})
	})

	t.Run("served", func(t *testing.T) {
		// A served request counts one success, one latency observation,
		// and feeds the MetaServer's traffic-control window what the
		// nodes billed for it — never the proxy's own estimate.
		p := conformStack(t, 1e9, 1e9, nil)
		for _, op := range proxyOps {
			if op.seed != nil {
				op.seed(t, p)
			}
			p.WindowRU()
			before, billed := readBooks(p), nodesBilled(p)
			if err := op.call(bg, p); err != nil {
				t.Errorf("%s err = %v", op.name, err)
			}
			d := readBooks(p).moved(before)
			if want := (Stats{Success: 1}); d.stats != want || d.latencies != 1 {
				t.Errorf("%s counted %+v with %d latency observations, want %+v with 1", op.name, d.stats, d.latencies, want)
			}
			if w, billed := p.WindowRU(), nodesBilled(p)-billed; w <= 0 || math.Abs(w-billed) > 1e-9 {
				t.Errorf("%s fed traffic control %v RU, want the %v the nodes billed (> 0)", op.name, w, billed)
			}
			p.Delete(bg, conformKey) // the next row starts from an absent key
		}
	})
}

// TestStaleEpochFencesEveryWrite: every keyed write carries the proxy's
// route epoch, so a primary that has moved on answers ErrStaleEpoch to a
// hash, TTL or conditional write exactly as it does to a SET — and each
// is retried once, refunded and counted once (the MetaServer's table is
// held stale here, so the retry meets the same fence).
func TestStaleEpochFencesEveryWrite(t *testing.T) {
	p := conformStack(t, 1e9, 1e9, nil)
	seedHash(t, p) // warms the route cache too
	route, node, err := p.routeForKey(conformKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SetRoute(route.Partition, true, route.Epoch+1, nil); err != nil {
		t.Fatal(err)
	}
	for _, op := range proxyOps {
		switch op.name {
		case "Put", "PutWith", "Delete", "Expire", "Persist", "HSetMulti", "HDel", "BatchPut", "BatchDelete":
		default:
			continue // reads are not fenced
		}
		before := readBooks(p)
		err := op.call(bg, p)
		d := readBooks(p).moved(before)
		if !errors.Is(err, datanode.ErrStaleEpoch) {
			t.Errorf("%s err = %v, want datanode.ErrStaleEpoch", op.name, err)
		}
		wantRefreshes := uint64(1)
		if op.batch {
			wantRefreshes = 2
		}
		if d.refreshes != wantRefreshes || !d.refundedInFull() || d.stats != (Stats{Errors: 1}) {
			t.Errorf("%s: %d route refreshes, charged %v refunded %v, counted %+v; want one retry, a full refund, one error",
				op.name, d.refreshes, d.charged, d.refunded, d.stats)
		}
	}
	if all, err := p.HGetAll(bg, conformKey); err != nil || len(all) != 1 || string(all["f"]) != "v" {
		t.Errorf("a fenced write reached the engine: %v, %v", all, err)
	}
}
