package datanode

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"abase/internal/clock"
	"abase/internal/lavastore"
)

func TestRangeScanPaginates(t *testing.T) {
	n := newTestNode(t, Config{})
	p := pid("t1", 0)
	if err := n.AddReplica(rid("t1", 0, 0), 100000, true); err != nil {
		t.Fatal(err)
	}
	const keys = 25
	for i := 0; i < keys; i++ {
		if _, err := n.Put(bg, p, []byte(fmt.Sprintf("k%02d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	var start []byte
	pages := 0
	var totalRU float64
	for {
		res, err := n.RangeScan(bg, p, ScanOptions{Start: start, Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		pages++
		totalRU += res.RU
		for _, e := range res.Entries {
			if seen[string(e.Key)] {
				t.Fatalf("key %q returned twice", e.Key)
			}
			seen[string(e.Key)] = true
		}
		if res.NextKey == nil {
			break
		}
		start = res.NextKey
	}
	if len(seen) != keys {
		t.Fatalf("scanned %d keys, want %d", len(seen), keys)
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3", pages)
	}
	if totalRU <= 0 {
		t.Fatalf("totalRU = %v, want > 0", totalRU)
	}
	// The scan work must show up in tenant accounting like any read.
	if st := n.TenantStats("t1"); st.RUUsed <= 0 || st.Success == 0 {
		t.Fatalf("tenant stats = %+v, scan not accounted", st)
	}
}

func TestRangeScanKeysOnly(t *testing.T) {
	n := newTestNode(t, Config{})
	p := pid("t1", 0)
	if err := n.AddReplica(rid("t1", 0, 0), 100000, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, p, []byte("k"), []byte("value"), 0); err != nil {
		t.Fatal(err)
	}
	res, err := n.RangeScan(bg, p, ScanOptions{KeysOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Value != nil {
		t.Fatalf("entries = %v, want one value-free entry", res.Entries)
	}
}

func TestRangeScanThrottledByPartitionQuota(t *testing.T) {
	n := newTestNode(t, Config{})
	p := pid("t1", 0)
	// Quota 1 RU/s → burst 3 RU; the default scan estimate for a
	// 256-entry page is ~256 RU, so admission rejects it outright.
	if err := n.AddReplica(rid("t1", 0, 0), 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RangeScan(bg, p, ScanOptions{}); !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
	if st := n.TenantStats("t1"); st.Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", st.Throttled)
	}
}

func TestRangeScanUnknownPartition(t *testing.T) {
	n := newTestNode(t, Config{})
	if _, err := n.RangeScan(bg, pid("t1", 0), ScanOptions{}); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("err = %v, want ErrNoPartition", err)
	}
}

// TestExpiredKeyConsistentAcrossGetScanAndCount is the TTL-consistency
// regression test: a TTL'd key served once through Get (which used to
// populate the SA-LRU without an expiry) must stop being served by Get
// after it expires, exactly when RangeScan and ScanReplica stop
// returning it.
func TestExpiredKeyConsistentAcrossGetScanAndCount(t *testing.T) {
	sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	n := newTestNode(t, Config{Clock: sim})
	p := pid("t1", 0)
	if err := n.AddReplica(rid("t1", 0, 0), 100000, true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, p, []byte("ttl"), []byte("v"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Put(bg, p, []byte("live"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	// Read both keys so any cacheable value is cached.
	if _, err := n.Get(bg, p, []byte("ttl")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(bg, p, []byte("live")); err != nil {
		t.Fatal(err)
	}
	// And through the batched read path, which caches too.
	if res := n.MultiGet(bg, []GetBatch{{PID: p, Keys: [][]byte{[]byte("ttl")}}}); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}

	sim.Advance(time.Hour)

	if _, err := n.Get(bg, p, []byte("ttl")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(ttl) after expiry = %v, want ErrNotFound", err)
	}
	res, err := n.RangeScan(bg, p, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || string(res.Entries[0].Key) != "live" {
		t.Fatalf("RangeScan = %v, want only 'live'", res.Entries)
	}
	count := 0
	if err := n.ScanReplica(p, func(lavastore.ScanEntry) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("ScanReplica count = %d, want 1", count)
	}
}
