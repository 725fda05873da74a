package main

import (
	"math/rand"
	"time"

	"abase"
	"abase/internal/datanode"
)

// Fixed configuration, stated in the envelope of every result. Costs of
// 1ns are below datanode.burn's 1µs floor, so no simulated service time
// is slept and every number is real overhead ("sim_cost": "off").
var clusterBase = abase.ClusterConfig{
	Nodes:     3,
	Replicas:  3,
	Cost:      datanode.CostModel{CPUTime: time.Nanosecond, IOReadTime: time.Nanosecond, IOWriteTime: time.Nanosecond},
	AdmitCost: time.Nanosecond,
}

const (
	tenantPartitions = 4
	tenantProxies    = 2
	mainQuotaRU      = 1e6
	// The aggressor's quota admits about 2,000 of the 16,000 1-KiB SETs
	// it offers each second: ru.WriteRU(1024, 3) is 1.5 RU.
	aggressorQuotaRU   = 3000
	aggressorKeys      = 16384
	aggressorValueLen  = 1024
	aggressorPerTick   = 16
	aggressorTick      = time.Millisecond
	aggressorSetRU     = 1.5
	overQuotaHardLimit = 2.0 // the paper's autonomous-burst ceiling
	// hardCheckMinWindow is five traffic-monitor periods.
	hardCheckMinWindow = 10 * time.Second

	// numConns is fixed, not derived from the machine: the sandbox has
	// two cores and the generator must stay the same size on any box.
	numConns = 2
	// windowLen splits the measured interval into sub-windows, with
	// refLen of the null server between them; every end-to-end metric
	// but peak_rss_mb is computed per sub-window, scaled by the box's
	// speed beside it and reduced over the sub-windows (see pick).
	windowLen = 500 * time.Millisecond
	refLen    = 50 * time.Millisecond
	// speedSpan is how many null-server slices on either side of a
	// sub-window tell the box's speed for it (their median).
	speedSpan = 5
	// setupSpeedSlices is how many slices tell it after a set-up.
	setupSpeedSlices = 3
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 3
	// monitorEvery is abase-server's default -traffic-monitor interval.
	monitorEvery = 2 * time.Second

	setBit = 1 << 31 // in a stream entry: the op is a SET
)

// workload is one named traffic mix with its data and cache sizes.
type workload struct {
	name string
	why  string

	keys     int
	valueLen int
	zipf     bool // Zipf(s=1.01) ranks; otherwise uniform
	setPct   int
	depth    int // commands written before their replies are read

	nodeCacheBytes  int64 // 0 keeps the 64 MiB default
	proxyCacheBytes int64 // 0 keeps the 32 MiB default

	// neighbor runs the stream on one connection as tenant "victim"
	// and an open-loop over-quota writer on the other.
	neighbor bool

	// nullOpsPerSec is what the null server answered per second under
	// this workload's closed loops on the calibration box; it anchors
	// the scaled metrics to familiar units and cancels in comparisons.
	nullOpsPerSec float64

	streamOps int // pre-generated ops per connection; wraps if outrun
	warmOps   int // ops per connection issued before the window opens
	ladderOps int // ops per rung in the traced ladder
}

var workloads = []*workload{
	{
		name: "hot-d1",
		why:  "cache-resident Zipf 95/5 at depth 1: syscall pairs, proxy AU-LRU and datanode hand-offs set latency",
		keys: 65536, valueLen: 128, zipf: true, setPct: 5, depth: 1,
		nullOpsPerSec: 100e3, streamOps: 1 << 20, warmOps: 20000, ladderOps: 50000,
	},
	{
		name: "hot-d32",
		why:  "same data and stream pipelined 32 deep: wake-ups amortised, per-command CPU and allocations set throughput",
		keys: 65536, valueLen: 128, zipf: true, setPct: 5, depth: 32,
		nullOpsPerSec: 2.2e6, streamOps: 1 << 22, warmOps: 60000, ladderOps: 50000,
	},
	{
		name: "churn",
		why:  "100 MB of 1 KiB values, uniform 50/50, 4x the node caches: WAL, flush, compaction and replication do the work",
		keys: 100000, valueLen: 1024, zipf: false, setPct: 50, depth: 4,
		nodeCacheBytes: 8 << 20, proxyCacheBytes: 1 << 20,
		nullOpsPerSec: 340e3, streamOps: 1 << 20, warmOps: 10000, ladderOps: 15000,
	},
	{
		name: "neighbor",
		why:  "victim runs the hot-d1 stream while a second tenant offers 8x its quota: refusals must be cheap and isolation hold",
		keys: 65536, valueLen: 128, zipf: true, setPct: 5, depth: 1, neighbor: true,
		nullOpsPerSec: 90e3, streamOps: 1 << 21, warmOps: 20000, ladderOps: 50000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mainTenant is the tenant whose latency and throughput are reported.
func (w *workload) mainTenant() string {
	if w.neighbor {
		return "victim"
	}
	return "bench"
}

// stream generates connection conn's ops from seed. With stride 2 a
// connection touches only keys ≡ conn (mod 2): no key is shared between
// connections, a connection's commands execute in order, and so every
// GET must return exactly the last value that connection sent.
func (w *workload) stream(seed int64, conn int) []uint32 {
	stride, offset := numConns, conn
	if w.neighbor {
		stride, offset = 1, 0
	}
	rng := rand.New(rand.NewSource(seed<<8 | int64(conn)))
	ranks := uint64(w.keys / stride)
	var zipf *rand.Zipf
	if w.zipf {
		zipf = rand.NewZipf(rng, 1.01, 1, ranks-1)
	}
	ops := make([]uint32, w.streamOps)
	for i := range ops {
		var rank uint64
		if zipf != nil {
			rank = zipf.Uint64()
		} else {
			rank = uint64(rng.Int63n(int64(ranks)))
		}
		op := uint32(rank)*uint32(stride) + uint32(offset)
		if rng.Intn(100) < w.setPct {
			op |= setBit
		}
		ops[i] = op
	}
	return ops
}

// aggressorStream is the over-quota writer's ops: uniform SETs.
func aggressorStream(seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed<<8 | 0xa6))
	ops := make([]uint32, 1<<18)
	for i := range ops {
		ops[i] = uint32(rng.Intn(aggressorKeys)) | setBit
	}
	return ops
}

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists what a tenant sees over the wire; BENCHMARK.json gives
// each a bound. Metrics demoted for not holding a bound (see README)
// are in perLayer under the same name.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"get_p50_us", "us", "lower"},
	{"set_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics. Every workload prints every
// name; one that does not apply to a workload reads 0.
var perLayer = []metricDef{
	// Ladder: mean span and allocations per call at each rung.
	{"lavastore.get_ns", "ns", "lower"}, {"lavastore.set_ns", "ns", "lower"},
	{"lavastore.get_allocs", "count", "lower"}, {"lavastore.set_allocs", "count", "lower"},
	{"datanode.get_ns", "ns", "lower"}, {"datanode.set_ns", "ns", "lower"},
	{"datanode.get_allocs", "count", "lower"}, {"datanode.set_allocs", "count", "lower"},
	{"datanode.get_self_ns", "ns", "lower"}, {"datanode.set_self_ns", "ns", "lower"},
	{"proxy.get_ns", "ns", "lower"}, {"proxy.set_ns", "ns", "lower"},
	{"proxy.get_allocs", "count", "lower"}, {"proxy.set_allocs", "count", "lower"},
	{"proxy.get_self_ns", "ns", "lower"}, {"proxy.set_self_ns", "ns", "lower"},
	{"client.get_ns", "ns", "lower"}, {"client.set_ns", "ns", "lower"},
	{"client.get_allocs", "count", "lower"}, {"client.set_allocs", "count", "lower"},
	{"client.get_self_ns", "ns", "lower"}, {"client.set_self_ns", "ns", "lower"},
	{"server.get_ns", "ns", "lower"}, {"server.set_ns", "ns", "lower"},
	{"server.get_allocs", "count", "lower"}, {"server.set_allocs", "count", "lower"},
	{"server.get_self_ns", "ns", "lower"}, {"server.set_self_ns", "ns", "lower"},
	// Standalone layers.
	{"resp.decode_ns", "ns", "lower"}, {"resp.encode_ns", "ns", "lower"},
	{"resp.decode_allocs", "count", "lower"}, {"resp.encode_allocs", "count", "lower"},
	{"wfq.submit_ns", "ns", "lower"}, {"wfq.submit_allocs", "count", "lower"},
	{"cache.salru_get_ns", "ns", "lower"}, {"cache.aulru_get_ns", "ns", "lower"},
	// Counts at the layer boundaries around the traced window.
	{"proxy.cache_hit_ratio", "ratio", "higher"}, {"proxy.rejected_share", "ratio", "lower"},
	{"proxy.shed", "count", "lower"}, {"proxy.errors", "count", "lower"},
	{"proxy.intercept_share", "ratio", "higher"},
	{"proxy.reject_ns", "ns", "lower"}, {"datanode.reject_ns", "ns", "lower"},
	{"datanode.cache_hit_ratio", "ratio", "higher"}, {"datanode.throttled_share", "ratio", "lower"},
	{"datanode.ru_per_op", "RU", "lower"}, {"datanode.ru_refunded_share", "ratio", "lower"},
	{"datanode.disk_used_mb", "MB", "lower"},
	{"wfq.io_stage_share", "ratio", "lower"}, {"wfq.extra_spawns", "count", "lower"},
	{"wfq.rule3_skips", "count", "lower"},
	{"lavastore.flushes", "count", "lower"}, {"lavastore.compactions", "count", "lower"},
	{"lavastore.tables", "count", "lower"}, {"lavastore.io_reads_per_get", "count", "lower"},
	{"lavastore.set_p999_us", "us", "lower"}, {"lavastore.set_max_us", "us", "lower"},
	{"fs.write_amp", "ratio", "lower"}, {"fs.wal_write_amp", "ratio", "lower"},
	{"fs.space_amp", "ratio", "lower"}, {"fs.read_calls_per_get", "count", "lower"},
	{"fs.syncs", "count", "lower"}, {"fs.files_created", "count", "lower"},
	{"server.get_p999_us", "us", "lower"}, {"server.set_p999_us", "us", "lower"},
	{"server.max_us", "us", "lower"}, {"server.window_spread_pct", "%", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"aggressor.refused_share", "ratio", "higher"}, {"aggressor.admitted_per_s", "1/s", "lower"},
	{"proc.allocs_per_op", "count", "lower"}, {"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cycles", "count", "lower"}, {"proc.gc_pause_ms", "ms", "lower"},
	{"proc.goroutines", "count", "lower"},
	{"trace.spans", "count", "higher"}, {"trace.overhead_pct", "%", "lower"},
	// Demoted from end to end: printed, not gated.
	{"get_p95_us", "us", "lower"}, {"set_p95_us", "us", "lower"},
	{"get_p99_us", "us", "lower"}, {"set_p99_us", "us", "lower"},
	{"peak_rss_end_mb", "MB", "lower"},
	{"box.speed", "ratio", "higher"},
	{"fail_share", "ratio", "lower"},
	{"over_quota_ratio", "ratio", "lower"},
}
