package datanode

import (
	"fmt"
	"runtime"
	"testing"
)

// TestTenantStateFootprint: a tenant's node state holds its tally in
// metrics.Striped cells, one per P and a latency histogram each, but
// the cells stop at a fixed count, so the state stops growing with the
// core count. 200 tenants are built at 8 Ps and at 64, and 64 Ps may
// cost at most a tenth more heap per tenant (uncapped, it cost 5.7
// times as much). A histogram bucket is one 8-byte counter, so a
// tenant takes at most maxTenantBytes at 8 Ps (82 KB when each bucket
// also summed its samples).
func TestTenantStateFootprint(t *testing.T) {
	const maxTenantBytes = 56_000
	at8, at64 := tenantStateHeap(t, 8), tenantStateHeap(t, 64)
	t.Logf("heap per tenant: %.0f B at 8 Ps, %.0f B at 64 Ps", at8, at64)
	if at8 > maxTenantBytes {
		t.Fatalf("a tenant takes %.0f B at 8 Ps, over the %d B ceiling", at8, maxTenantBytes)
	}
	if at64 > 1.1*at8 {
		t.Fatalf("a tenant takes %.0f B at 64 Ps and %.0f B at 8: its state grows with the core count", at64, at8)
	}
}

// tenantStateHeap returns the heap one tenant's state takes when it is
// built at procs Ps.
func tenantStateHeap(t *testing.T, procs int) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n := New(Config{})
	defer n.Close()
	const tenants = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n.mu.Lock()
	for i := 0; i < tenants; i++ {
		n.tenantStateLocked(fmt.Sprintf("tenant-%d", i))
	}
	n.mu.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / tenants
}
