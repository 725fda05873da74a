package abase

import (
	"context"
	"errors"
	"testing"
	"time"
)

// bg is the background context shared by tests that do not exercise
// cancellation; cancellation behavior itself is covered in this file.
var bg = context.Background()

// TestClientPreCanceledNeverChargesRU: the acceptance-criterion test —
// a context that is already done never reaches the storage engine and
// charges no RU anywhere in the three planes.
func TestClientPreCanceledNeverChargesRU(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "pc", QuotaRU: 100000})
	tn, _ := c.Tenant("pc")
	cl := tn.Client()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Set(ctx, []byte("k"), []byte("v")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Set err = %v, want ErrCanceled", err)
	}
	if _, err := cl.Get(ctx, []byte("k")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Get err = %v, want ErrCanceled", err)
	}
	if _, err := cl.MGet(ctx, []byte("a"), []byte("b")); !errors.Is(err, ErrCanceled) {
		t.Fatalf("MGet err = %v, want ErrCanceled", err)
	}
	if _, _, err := cl.Scan(ctx, "", "*", 10); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Scan err = %v, want ErrCanceled", err)
	}

	// Nothing reached the engine or was charged.
	if _, err := cl.Get(bg, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("canceled Set reached the engine: %v", err)
	}
	for _, n := range c.Nodes() {
		if st := n.TenantStats("pc"); st.RUUsed > rUOfOneMiss() {
			t.Fatalf("node %s charged RU for canceled requests: %+v", n.ID(), st)
		}
	}
}

// rUOfOneMiss bounds the RU the verification read itself may have
// charged (a zero-byte miss).
func rUOfOneMiss() float64 { return 1 }

// TestClientConditionalWrites covers Set/SetWith option combinations
// end to end through the fleet.
func TestClientConditionalWrites(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "cw", QuotaRU: 100000})
	tn, _ := c.Tenant("cw")
	cl := tn.Client()
	k := []byte("cond")

	// NX writes the first time, refuses the second.
	if err := cl.Set(bg, k, []byte("v1"), IfNotExists()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(bg, k, []byte("v2"), IfNotExists()); !errors.Is(err, ErrConditionNotMet) {
		t.Fatalf("NX on existing: %v, want ErrConditionNotMet", err)
	}
	if v, _ := cl.Get(bg, k); string(v) != "v1" {
		t.Fatalf("NX overwrote: %q", v)
	}
	// SetWith reports the refusal without an error, with the old value.
	res, err := cl.SetWith(bg, k, []byte("v2"), IfNotExists(), ReturnOld())
	if err != nil || res.Written || !res.OldExists || string(res.Old) != "v1" {
		t.Fatalf("SetWith NX: res=%+v err=%v", res, err)
	}
	// XX writes over an existing key, refuses an absent one.
	if err := cl.Set(bg, k, []byte("v3"), IfExists()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(bg, []byte("ghost"), []byte("v"), IfExists()); !errors.Is(err, ErrConditionNotMet) {
		t.Fatalf("XX on absent: %v", err)
	}
	// KEEPTTL preserves the expiry, a plain Set clears it.
	if err := cl.Set(bg, k, []byte("v4"), WithTTL(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(bg, k, []byte("v5"), KeepTTL()); err != nil {
		t.Fatal(err)
	}
	if ttl, has, _ := cl.TTL(bg, k); !has || ttl <= 50*time.Minute {
		t.Fatalf("KEEPTTL lost the expiry: ttl=%v has=%v", ttl, has)
	}
	if v, err := cl.Get(bg, k); err != nil || string(v) != "v5" {
		t.Fatalf("KEEPTTL value: %q err=%v", v, err)
	}
	if err := cl.Set(bg, k, []byte("v6")); err != nil {
		t.Fatal(err)
	}
	if _, has, _ := cl.TTL(bg, k); has {
		t.Fatal("plain Set kept the expiry")
	}
}

// TestKeysBackoffBoundedByDeadline: a traversal whose sub-scans are
// persistently throttled backs off between pages and gives up with the
// deadline sentinel instead of spinning until the throttle lifts.
func TestKeysBackoffBoundedByDeadline(t *testing.T) {
	// Keys and DBSize share one paced traversal; each must honour it.
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, cl *Client) error
	}{
		{"Keys", func(ctx context.Context, cl *Client) error { _, err := cl.Keys(ctx, "*"); return err }},
		{"DBSize", func(ctx context.Context, cl *Client) error { _, err := cl.DBSize(ctx); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, ClusterConfig{Nodes: 3})
			// A quota so small every scan admission is rejected at the proxy.
			c.CreateTenant(TenantSpec{Name: "kb", QuotaRU: 0.000001, DisableProxyCache: true})
			tn, _ := c.Tenant("kb")
			cl := tn.Client()

			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := tc.run(ctx, cl)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("%s err = %v, want ErrDeadlineExceeded", tc.name, err)
			}
			if elapsed > 400*time.Millisecond {
				t.Fatalf("%s ran %v past its 150ms deadline", tc.name, elapsed)
			}
			// The backoff must actually pace the retries: with ~1ms, 2ms,
			// 4ms... waits, a 150ms window fits well under 5000 attempts; a
			// busy-spin would do millions. Proxy rejected counter bounds the
			// attempts.
			rejected := tn.Fleet().AggregateStats().Rejected
			if rejected > 5000 {
				t.Fatalf("%s busy-spun: %d throttled attempts in 150ms", tc.name, rejected)
			}
		})
	}
}

// TestSetQuotaRacesSplit is the -race regression for Tenant.SetQuota:
// it must read a locked routing snapshot, not the live table a
// concurrent heat split mutates.
func TestSetQuotaRacesSplit(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	c.CreateTenant(TenantSpec{Name: "qr", QuotaRU: 100000, Partitions: 2})
	tn, _ := c.Tenant("qr")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tn.SetQuota(float64(100000 + i))
		}
	}()
	for i := 0; i < 4; i++ {
		if err := c.Meta.SplitTenantPartitions("qr"); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if got := tn.meta.Quota.RU(); got != 100049 {
		t.Fatalf("final quota = %v", got)
	}
}
