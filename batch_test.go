package abase

import (
	"errors"
	"fmt"
	"testing"
)

// TestClientBatchOps drives the batched multi-key path end to end:
// MSetPairs → MGet/MExists/MDelete across several partitions and
// proxies, checking order preservation and per-key missing slots.
func TestClientBatchOps(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{
		Name: "batch", QuotaRU: 100000, Partitions: 4, Proxies: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()

	kvs := make([]KV, 30)
	for i := range kvs {
		kvs[i] = KV{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	if err := cl.MSetPairs(bg, kvs); err != nil {
		t.Fatal(err)
	}

	// Interleave existing and missing keys; order must be preserved.
	keys := make([][]byte, 0, 40)
	for i := 0; i < 30; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
		if i%3 == 0 {
			keys = append(keys, []byte(fmt.Sprintf("missing%d", i)))
		}
	}
	values, err := cl.MGet(bg, keys...)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != len(keys) {
		t.Fatalf("len(values) = %d, want %d", len(values), len(keys))
	}
	j := 0
	for i := 0; i < 30; i++ {
		if string(values[j]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d = %q, want v%d", j, values[j], i)
		}
		j++
		if i%3 == 0 {
			if values[j] != nil {
				t.Fatalf("missing slot %d = %q, want nil", j, values[j])
			}
			j++
		}
	}

	exists, err := cl.MExists(bg, []byte("k0"), []byte("nope"), []byte("k29"))
	if err != nil {
		t.Fatal(err)
	}
	if !exists[0] || exists[1] || !exists[2] {
		t.Fatalf("MExists = %v", exists)
	}

	if n, err := cl.MDelete(bg, []byte("k0"), []byte("k1")); err != nil || n != 2 {
		t.Fatalf("MDelete = %d, %v", n, err)
	}
	// Absent keys are not counted and are not an error.
	if n, err := cl.MDelete(bg, []byte("k0"), []byte("never")); err != nil || n != 0 {
		t.Fatalf("MDelete of absent keys = %d, %v", n, err)
	}
	values, err = cl.MGet(bg, []byte("k0"), []byte("k2"))
	if err != nil {
		t.Fatal(err)
	}
	if values[0] != nil || string(values[1]) != "v2" {
		t.Fatalf("after MDelete: %q", values)
	}
}

// TestMGetPartialThrottle checks the headline batched-path behavior:
// when quota rejects the miss sub-batch, proxy-cached keys are still
// served and only the uncached slots report ErrThrottled — the batch
// is not aborted.
func TestMGetPartialThrottle(t *testing.T) {
	// The warm-up reads hit the node caches, so the proxies' estimators
	// see only node hits; an uncached read still costs the read floor.
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, err := c.CreateTenant(TenantSpec{
		Name: "throttle", QuotaRU: 100000, Proxies: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := tn.Client()
	// A write earns no proxy-cache slot; the read after it is the key's
	// second access, which crosses the hotness-gated admission
	// threshold (with one proxy per group, a key always lands on the
	// same proxy).
	for k, v := range map[string]string{"hot1": "a", "hot2": "b"} {
		if err := cl.Set(bg, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(bg, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Collapse the quota: the proxy limiters clamp their buckets, so
	// the next uncached read cannot be admitted.
	tn.SetQuota(0.000001)

	values, err := cl.MGet(bg, []byte("hot1"), []byte("cold"), []byte("hot2"))
	if string(values[0]) != "a" || string(values[2]) != "b" {
		t.Fatalf("cached slots = %q", values)
	}
	if values[1] != nil {
		t.Fatalf("throttled slot has value %q", values[1])
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("errors.Is(err, ErrThrottled) = false: %v", err)
	}
	if be.Errs[0] != nil || be.Errs[2] != nil || !errors.Is(be.Errs[1], ErrThrottled) {
		t.Fatalf("per-key slots = %v", be.Errs)
	}
}

// TestMGetNoErrorWhenOnlyMissing: missing keys are nil slots, not an
// error.
func TestMGetNoErrorWhenOnlyMissing(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "miss", QuotaRU: 100000})
	values, err := tn.Client().MGet(bg, []byte("a"), []byte("b"))
	if err != nil {
		t.Fatalf("MGet of missing keys errored: %v", err)
	}
	if values[0] != nil || values[1] != nil {
		t.Fatalf("values = %q", values)
	}
}

// TestMSetPairsDuplicateKeysLastWins: duplicate keys in one batch
// apply in order.
func TestMSetPairsDuplicateKeysLastWins(t *testing.T) {
	c := newCluster(t, ClusterConfig{Nodes: 3})
	tn, _ := c.CreateTenant(TenantSpec{Name: "dup", QuotaRU: 100000})
	cl := tn.Client()
	if err := cl.MSetPairs(bg, []KV{
		{Key: []byte("k"), Value: []byte("first")},
		{Key: []byte("k"), Value: []byte("second")},
	}); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(bg, []byte("k"))
	if err != nil || string(v) != "second" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}
