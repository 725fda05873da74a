package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/ru"
)

func TestProxyBatchPutGetOrder(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	kvs := make([]KV, 20)
	for i := range kvs {
		kvs[i] = KV{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	for i, err := range p.BatchPut(bg, kvs) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	keys := make([][]byte, 0, 21)
	for i := 0; i < 20; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
	}
	keys = append(keys, []byte("missing"))
	values, errs := p.BatchGet(bg, keys)
	for i := 0; i < 20; i++ {
		if errs[i] != nil || string(values[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d = %q, %v", i, values[i], errs[i])
		}
	}
	if !errors.Is(errs[20], ErrNotFound) {
		t.Fatalf("missing slot err = %v", errs[20])
	}
}

func TestProxyBatchGetSingleQuotaAdmission(t *testing.T) {
	_, p := newStack(t, 100000, func(c *Config) { c.EnableCache = false })
	kvs := make([]KV, 16)
	keys := make([][]byte, 16)
	for i := range kvs {
		keys[i] = []byte(fmt.Sprintf("k%d", i))
		kvs[i] = KV{Key: keys[i], Value: []byte("v")}
	}
	before := p.limiter.Admitted()
	if errs := p.BatchPut(bg, kvs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	mid := p.limiter.Admitted()
	if mid-before != 1 {
		t.Fatalf("16-key BatchPut took %d admissions, want 1", mid-before)
	}
	if _, errs := p.BatchGet(bg, keys); errs[0] != nil {
		t.Fatal(errs[0])
	}
	after := p.limiter.Admitted()
	if after-mid != 1 {
		t.Fatalf("16-key BatchGet took %d admissions, want 1", after-mid)
	}
}

func TestProxyBatchGetCacheHitsSurviveThrottle(t *testing.T) {
	// Tiny quota: the cached key must still be served while the
	// uncached key's slot reports ErrThrottled — not the whole batch.
	// The nodes cache nothing, so the warm-up read is a node miss and
	// the estimator goes on charging an uncached read its value's size:
	// 2 RU for the hot key's.
	p := nodeStack(t, clock.Real{}, datanode.Config{CacheBytes: 1}, Config{EnableCache: true, ProxyQuota: 5, CacheTTL: time.Minute})
	hot := bytes.Repeat([]byte("v"), 2*ru.UnitBytes)
	// A write earns no AU-LRU slot; the read after it is the key's
	// second access, which crosses the hotness-gated admission
	// threshold and caches the value.
	if err := p.Put(bg, []byte("hot"), hot, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(bg, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 2048) // 3 RU per write at r=3
	for i := 0; i < 20; i++ {
		p.Put(bg, []byte(fmt.Sprintf("w%d", i)), big, 0) // drain quota
	}
	// Deterministically empty the bucket below the 1-RU read estimate.
	for p.limiter.Allow(0.9, p.cfg.Clock.Now()) {
	}
	values, errs := p.BatchGet(bg, [][]byte{[]byte("hot"), []byte("cold")})
	if errs[0] != nil || !bytes.Equal(values[0], hot) {
		t.Fatalf("cached slot = %d B, %v", len(values[0]), errs[0])
	}
	if !errors.Is(errs[1], ErrThrottled) {
		t.Fatalf("uncached slot err = %v, want ErrThrottled", errs[1])
	}
}

func TestProxyBatchDeleteAndExists(t *testing.T) {
	_, p := newStack(t, 100000, nil)
	p.BatchPut(bg, []KV{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	})
	exists, errs := p.BatchExists(bg, [][]byte{[]byte("a"), []byte("ghost"), []byte("b")})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("exists %d: %v", i, err)
		}
	}
	if !exists[0] || exists[1] || !exists[2] {
		t.Fatalf("exists = %v", exists)
	}
	for i, err := range p.BatchDelete(bg, [][]byte{[]byte("a"), []byte("b")}) {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if _, err := p.Get(bg, []byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a survived delete: %v", err)
	}
}

func TestFleetBatchOpsAcrossGroups(t *testing.T) {
	m, _ := newStack(t, 100000, nil)
	// Cache off: with multiple members per group, a delete handled by
	// one member must not race another member's stale AU-LRU entry.
	fleet, err := NewFleet(Config{
		Tenant:      "t1",
		Meta:        m,
		EnableCache: false,
		ProxyQuota:  1e9,
	}, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]KV, 32)
	keys := make([][]byte, 32)
	for i := range kvs {
		keys[i] = []byte(fmt.Sprintf("fk%d", i))
		kvs[i] = KV{Key: keys[i], Value: []byte(fmt.Sprintf("fv%d", i))}
	}
	for i, err := range fleet.BatchPut(bg, kvs) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	values, errs := fleet.BatchGet(bg, keys)
	for i := range keys {
		if errs[i] != nil || string(values[i]) != fmt.Sprintf("fv%d", i) {
			t.Fatalf("slot %d = %q, %v", i, values[i], errs[i])
		}
	}
	exists, _ := fleet.BatchExists(bg, append(keys[:4:4], []byte("nope")))
	if !exists[0] || !exists[3] || exists[4] {
		t.Fatalf("exists = %v", exists)
	}
	for i, err := range fleet.BatchDelete(bg, keys[:8]) {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	values, errs = fleet.BatchGet(bg, keys[:9])
	for i := 0; i < 8; i++ {
		if !errors.Is(errs[i], ErrNotFound) {
			t.Fatalf("deleted slot %d = %q, %v", i, values[i], errs[i])
		}
	}
	if errs[8] != nil || string(values[8]) != "fv8" {
		t.Fatalf("survivor slot = %q, %v", values[8], errs[8])
	}
}
