// Benchmarks of the public Client's multi-key paths, and the hotspot
// mitigation experiment CI's bench smoke runs once. Run with
//
//	go test -run '^$' -bench . -benchmem
//
// cmd/abase-bench prints every table and figure of the paper's
// evaluation, which internal/experiments' shape tests check.
package abase_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"abase"
	"abase/internal/experiments"
)

// bg is the background context for benchmark workloads.
var bg = context.Background()

// printOnce prints an experiment's table on the first benchmark
// iteration when -v is set.
func printOnce(b *testing.B, i int, t experiments.Table) {
	if i == 0 && testing.Verbose() {
		t.Fprint(testWriter{b})
	}
}

type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = testWriter{}

// --- Batched vs looped multi-key path ---
//
// Each iteration moves benchBatchSize keys, so ns/op is directly
// comparable between the Batch* and Looped* pairs. The acceptance bar
// is the batched path at ≥2× the per-key loop for 16-key batches.

const benchBatchSize = 16

func newBatchBenchClient(b *testing.B) *abase.Client {
	b.Helper()
	cluster, err := abase.NewCluster(abase.ClusterConfig{
		Nodes: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cluster.Close() })
	tenant, err := cluster.CreateTenant(abase.TenantSpec{
		Name:    "bench",
		QuotaRU: 1e9,
		// Cache off so reads reach the DataNodes on both paths; the
		// comparison isolates admission + fan-out overhead. One
		// partition and one proxy measure the batch mechanism itself;
		// experiments.BatchComparison covers the partitioned fan-out.
		DisableProxyCache: true,
		Partitions:        1,
		Proxies:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tenant.Client()
}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%05d", i))
	}
	return keys
}

func BenchmarkBatchGet(b *testing.B) {
	cl := newBatchBenchClient(b)
	keys := benchKeys(512)
	for _, k := range keys {
		cl.Set(bg, k, []byte("value-0123456789abcdef"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * benchBatchSize) % (len(keys) - benchBatchSize)
		if _, err := cl.MGet(bg, keys[off:off+benchBatchSize]...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopedGet(b *testing.B) {
	cl := newBatchBenchClient(b)
	keys := benchKeys(512)
	for _, k := range keys {
		cl.Set(bg, k, []byte("value-0123456789abcdef"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * benchBatchSize) % (len(keys) - benchBatchSize)
		for _, k := range keys[off : off+benchBatchSize] {
			if _, err := cl.Get(bg, k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchPut(b *testing.B) {
	cl := newBatchBenchClient(b)
	keys := benchKeys(512)
	value := []byte("value-0123456789abcdef")
	kvs := make([]abase.KV, benchBatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * benchBatchSize) % (len(keys) - benchBatchSize)
		for j := range kvs {
			kvs[j] = abase.KV{Key: keys[off+j], Value: value}
		}
		if err := cl.MSetPairs(bg, kvs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopedPut(b *testing.B) {
	cl := newBatchBenchClient(b)
	keys := benchKeys(512)
	value := []byte("value-0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * benchBatchSize) % (len(keys) - benchBatchSize)
		for _, k := range keys[off : off+benchBatchSize] {
			if err := cl.Set(bg, k, value); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScan measures one full distributed cursor traversal per
// iteration; ns/op divided by the key count is the per-key scan cost
// through admission, partition quota, and the large-read WFQ.
func BenchmarkScan(b *testing.B) {
	cl := newBatchBenchClient(b)
	keys := benchKeys(512)
	for _, k := range keys {
		cl.Set(bg, k, []byte("value-0123456789abcdef"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		cursor := ""
		for {
			ks, next, err := cl.Scan(bg, cursor, "", 64)
			if err != nil {
				b.Fatal(err)
			}
			total += len(ks)
			if next == "" {
				break
			}
			cursor = next
		}
		if total != len(keys) {
			b.Fatalf("traversal saw %d keys, want %d", total, len(keys))
		}
	}
}

// BenchmarkHotspot runs the hotspot mitigation experiment once per
// iteration: skewed reads against a scarce proxy cache, hotness-gated
// admission vs cache-everything. The reported metrics quantify the win
// under skew — hotkey-speedup is the gated/ungated throughput ratio on
// the hot-key mix; -v prints the full table.
func BenchmarkHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, split, t := experiments.HotspotMitigation(experiments.HotspotOpts{Ops: 12000, Keys: 16000})
		printOnce(b, i, t)
		if i == 0 {
			var off, on experiments.HotspotRow
			for _, r := range rows[2:] { // hot-key mix rows
				if r.Gated {
					on = r
				} else {
					off = r
				}
			}
			if off.OpsPerSec > 0 {
				b.ReportMetric(on.OpsPerSec/off.OpsPerSec, "hotkey-speedup")
			}
			b.ReportMetric(on.HitRatio*100, "gated-hit%")
			b.ReportMetric(off.HitRatio*100, "ungated-hit%")
			if split.Cycles == 0 {
				b.Fatal("sustained heat never fired the automatic split")
			}
		}
	}
}
