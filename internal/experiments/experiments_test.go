package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"abase/internal/benchjson"
	"abase/internal/sim"
)

func TestTableFprint(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "333", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, tbl := Figure6(Figure6Opts{PhaseDur: 900 * time.Millisecond})
	if len(res) != 3 {
		t.Fatalf("phases = %d", len(res))
	}
	base, burst, proxied := res[0], res[1], res[2]
	// Baseline healthy.
	if base.T2.SuccessQPS < base.T1.SuccessQPS*0.5 {
		t.Fatalf("baseline imbalanced: %+v", base)
	}
	// Burst without proxy: T2 collapses.
	if burst.T2.SuccessQPS > 0.4*base.T2.SuccessQPS {
		t.Fatalf("T2 did not collapse under burst: %.1f vs base %.1f",
			burst.T2.SuccessQPS, base.T2.SuccessQPS)
	}
	if burst.T1.ErrorQPS == 0 {
		t.Fatal("burst produced no errors")
	}
	// Proxy on: T2 recovers.
	if proxied.T2.SuccessQPS < 0.8*base.T2.SuccessQPS {
		t.Fatalf("T2 did not recover with proxy: %.1f vs base %.1f",
			proxied.T2.SuccessQPS, base.T2.SuccessQPS)
	}
	if proxied.T2.ErrorQPS > burst.T2.ErrorQPS {
		t.Fatal("proxy did not reduce T2 errors")
	}
	if len(tbl.Rows) != 3 {
		t.Fatal("table rows wrong")
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, _ := Figure7(Figure7Opts{PhaseDur: 900 * time.Millisecond})
	base, burst, quota := res[0], res[1], res[2]
	// Burst: T1 latency inflates by at least ~10×; T2 latency held.
	if burst.T1.P99 < 10*base.T1.P99 {
		t.Fatalf("T1 latency did not inflate: %v vs base %v", burst.T1.P99, base.T1.P99)
	}
	if burst.T2.P99 > 5*base.T2.P99 {
		t.Fatalf("WFQ failed to protect T2 latency: %v vs base %v", burst.T2.P99, base.T2.P99)
	}
	// T2 keeps succeeding through the burst.
	if burst.T2.SuccessQPS < 0.7*base.T2.SuccessQPS {
		t.Fatalf("T2 starved: %.1f", burst.T2.SuccessQPS)
	}
	// Partition quota: T1 success capped well below the burst, with
	// rejected error QPS appearing.
	if quota.T1.SuccessQPS > 0.8*burst.T1.SuccessQPS {
		t.Fatalf("partition quota did not cap T1: %.1f vs %.1f",
			quota.T1.SuccessQPS, burst.T1.SuccessQPS)
	}
	if quota.T1.ErrorQPS == 0 {
		t.Fatal("partition quota produced no rejections")
	}
}

func TestTable1Shape(t *testing.T) {
	rows, tbl := Table1(Table1Opts{Ops: 1500})
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Profile.Workload] = r
	}
	// Hit-ratio ordering: search ≫ ads.
	search := byName["Forward sorted data"]
	ads := byName["For message joiner"]
	if search.MeasuredHR <= ads.MeasuredHR {
		t.Fatalf("hit ordering broken: search %.2f vs ads %.2f",
			search.MeasuredHR, ads.MeasuredHR)
	}
	// Read ratios close to spec.
	if ads.ReadRatio > 0.4 {
		t.Fatalf("ads read ratio = %.2f, want ≈0.25", ads.ReadRatio)
	}
	if len(tbl.Rows) != 7 {
		t.Fatal("table rows wrong")
	}
}

func TestFigure5Shapes(t *testing.T) {
	scs, _ := Figure5(Figure5Opts{OpsPerWindow: 800})
	if len(scs) != 5 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	get := func(name string) Fig5Scenario {
		for _, s := range scs {
			if strings.HasPrefix(s.Name, name) {
				return s
			}
		}
		t.Fatalf("scenario %s missing", name)
		return Fig5Scenario{}
	}
	first := func(s Fig5Scenario) Fig5Window { return s.Windows[1] } // skip warmup window 0
	last := func(s Fig5Scenario) Fig5Window { return s.Windows[len(s.Windows)-1] }

	// (a) hit stays high after QPS rises.
	a := get("(a)")
	if last(a).HitRatio < first(a).HitRatio-0.15 {
		t.Fatalf("(a) hit dropped: %.2f → %.2f", first(a).HitRatio, last(a).HitRatio)
	}
	// (b) hit drops markedly.
	b := get("(b)")
	if last(b).HitRatio > first(b).HitRatio-0.10 {
		t.Fatalf("(b) hit did not drop: %.2f → %.2f", first(b).HitRatio, last(b).HitRatio)
	}
	// (c) hot keys: hit rises.
	c := get("(c)")
	if last(c).HitRatio < first(c).HitRatio {
		t.Fatalf("(c) hit did not rise: %.2f → %.2f", first(c).HitRatio, last(c).HitRatio)
	}
	// (e) mid-run collapse then recovery.
	e := get("(e)")
	mid := e.Windows[len(e.Windows)/2]
	if mid.HitRatio > 0.4 {
		t.Fatalf("(e) cold scan did not collapse hit: %.2f", mid.HitRatio)
	}
	if last(e).HitRatio < 0.4 {
		t.Fatalf("(e) hit did not recover: %.2f", last(e).HitRatio)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, _ := Table2(Table2Opts{Ops: 8000, ProxyScale: 50})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HitAfter <= r.HitBefore {
			t.Fatalf("%s: grouping did not raise hit ratio (%.2f → %.2f)",
				r.Tenant, r.HitBefore, r.HitAfter)
		}
		if r.RUSaving <= 0 {
			t.Fatalf("%s: no RU saving (%.2f)", r.Tenant, r.RUSaving)
		}
	}
}

func TestFigure8aShape(t *testing.T) {
	points, _ := Figure8a()
	if len(points) != 21 {
		t.Fatalf("points = %d", len(points))
	}
	// The quota must rise before usage crosses it.
	throttled := 0
	for _, p := range points {
		if p.Usage > p.Quota {
			throttled++
		}
	}
	if throttled > 0 {
		t.Fatalf("%d days throttled despite predictive scaling", throttled)
	}
	if points[20].Quota <= points[0].Quota {
		t.Fatal("quota never raised despite growth")
	}
}

func TestFigure8bShape(t *testing.T) {
	weeks, tbl := Figure8b(sim.OncallConfig{Tenants: 40, Weeks: 16, DeployWeek: 8, Seed: 2})
	if len(weeks) != 16 {
		t.Fatalf("weeks = %d", len(weeks))
	}
	before, after, reduction := sim.OncallReduction(weeks)
	if before == 0 || reduction < 0.4 {
		t.Fatalf("oncall reduction %.0f%% (before %.1f after %.1f)", reduction*100, before, after)
	}
	if len(tbl.Notes) == 0 {
		t.Fatal("missing summary note")
	}
}

func TestFigure9Shape(t *testing.T) {
	res, _ := Figure9(Figure9Opts{Nodes: 150, Tenants: 60})
	if res.RUReduction < 0.5 {
		t.Fatalf("RU std reduction %.0f%%, want ≥50%%", res.RUReduction*100)
	}
	if res.StoVarReduct < 0.5 {
		t.Fatalf("storage variance reduction %.0f%%", res.StoVarReduct*100)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations")
	}
}

func TestFigure10Shape(t *testing.T) {
	on, off, _ := Figure10(Figure10Opts{Nodes: 40, Tenants: 25, Hours: 48})
	gapOn := avgGapSamples(on[24:])
	gapOff := avgGapSamples(off[24:])
	if gapOn >= gapOff {
		t.Fatalf("rescheduling did not shrink gap: %.3f vs %.3f", gapOn, gapOff)
	}
}

func TestUtilizationShape(t *testing.T) {
	pre, multi, _ := UtilizationComparison(100, 5)
	if multi.CPU < 1.5*pre.CPU {
		t.Fatalf("CPU utilization did not improve enough: %.2f vs %.2f", pre.CPU, multi.CPU)
	}
	if multi.Machines >= pre.Machines {
		t.Fatal("multi-tenant needs as many machines as single-tenant")
	}
}

func TestFigure34Shape(t *testing.T) {
	res, tbl := Figure34(Figure34Opts{Tenants: 150, ServedTenants: 8, OpsPerTenant: 200})
	if res.HitP50 < 0.7 {
		t.Fatalf("hit p50 = %.2f, want concentrated near 1", res.HitP50)
	}
	if res.KVP99 < 10*res.KVP50 {
		t.Fatalf("KV tail not heavy: p50=%.0f p99=%.0f", res.KVP50, res.KVP99)
	}
	// Latency-to-SLA must stay below 1 (SLA met) for the served sample.
	if res.LatencyToSLAMax > 1 {
		t.Fatalf("SLA violated: max ratio %.2f", res.LatencyToSLAMax)
	}
	if len(tbl.Rows) != 4 {
		t.Fatal("table rows wrong")
	}
}

func TestAblationSALRUShape(t *testing.T) {
	tbl := AblationSALRU(20000)
	if len(tbl.Rows) != 2 {
		t.Fatal("rows wrong")
	}
}

func TestAblationForecastShape(t *testing.T) {
	tbl := AblationForecast()
	if len(tbl.Rows) != 4 {
		t.Fatal("rows wrong")
	}
}

func TestAblationActiveUpdateShape(t *testing.T) {
	tbl := AblationActiveUpdate()
	if len(tbl.Rows) != 2 {
		t.Fatal("rows wrong")
	}
}

func TestAblationFanoutShape(t *testing.T) {
	tbl := AblationFanout(6000)
	if len(tbl.Rows) != 5 {
		t.Fatal("rows wrong")
	}
}

func TestAblationVFTShape(t *testing.T) {
	tbl := AblationVFT()
	if len(tbl.Rows) != 2 {
		t.Fatal("rows wrong")
	}
}

// TestExperimentsHotspotMitigation is the CI smoke for the hotspot
// harness (`go test -run TestExperiments`): with a scarce proxy cache
// under skew, hotness-gated admission must beat cache-everything on
// hit ratio and origin RU, detection must find the true hot set, and
// sustained heat must fire the automatic doubling split.
func TestExperimentsHotspotMitigation(t *testing.T) {
	rows, split, tbl := HotspotMitigation(HotspotOpts{Ops: 12000, Keys: 16000})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := map[string]HotspotRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%v", r.Workload, r.Gated)] = r
		if r.Recall10 < 0.5 {
			t.Errorf("%s %s: top-10 recall = %.2f, want >= 0.5", r.Workload, r.Policy, r.Recall10)
		}
	}
	for _, w := range []string{rows[0].Workload, rows[2].Workload} {
		off, on := byKey[w+"/false"], byKey[w+"/true"]
		if on.HitRatio <= off.HitRatio {
			t.Errorf("%s: gated hit %.3f <= ungated %.3f", w, on.HitRatio, off.HitRatio)
		}
		if on.NodeRU >= off.NodeRU {
			t.Errorf("%s: gated node RU %.0f >= ungated %.0f", w, on.NodeRU, off.NodeRU)
		}
	}
	// The hot-key mix is the paper's hot-key event: the gap must be
	// material, not marginal.
	off, on := byKey[rows[2].Workload+"/false"], byKey[rows[2].Workload+"/true"]
	if on.HitRatio < off.HitRatio+0.05 {
		t.Errorf("hot-key mix: gated hit %.3f not materially above ungated %.3f", on.HitRatio, off.HitRatio)
	}
	if split.Cycles < 2 {
		t.Errorf("auto split fired on cycle %d, want >= 2 (sustained, not instant)", split.Cycles)
	}
	if split.PartitionsAfter != 2*split.PartitionsBefore {
		t.Errorf("partitions %d -> %d, want doubled", split.PartitionsBefore, split.PartitionsAfter)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

// TestExperimentsFailoverAvailability is the CI smoke for the failover
// harness: after a primary is killed mid-workload, writes must resume
// within the monitor window, ZERO acknowledged writes may be lost, the
// affected partitions must all have promoted primaries, and follower
// reads must keep serving during the outage.
func TestExperimentsFailoverAvailability(t *testing.T) {
	res, tbl := FailoverAvailability(FailoverOpts{Keys: 1000, Ops: 4000})
	if res.AffectedPartitions == 0 {
		t.Fatal("victim led no partitions; experiment setup broken")
	}
	if res.PromotedPartitions != res.AffectedPartitions {
		t.Errorf("promoted %d of %d affected partitions", res.PromotedPartitions, res.AffectedPartitions)
	}
	if res.LostAckedWrites != 0 {
		t.Errorf("lost %d acknowledged writes, want 0", res.LostAckedWrites)
	}
	// "Within the monitor window": detection needs at most two suspect
	// probes plus one promotion; on a loaded CI machine that must still
	// land well under a human-scale bound.
	if res.UnavailableWindow <= 0 || res.UnavailableWindow > 5*time.Second {
		t.Errorf("unavailability window = %v", res.UnavailableWindow)
	}
	if res.FollowerReadsServed == 0 {
		t.Error("no follower reads served during the outage")
	}
	if res.FollowerReadsFailed > 0 {
		t.Errorf("%d follower reads failed during the outage", res.FollowerReadsFailed)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

// TestExperimentsDeadlineShedding is the CI smoke for the
// deadline-shedding harness (`go test -run TestExperiments`): with
// shedding on, the node refuses doomed tight-deadline requests up
// front, and goodput for requests that can still make their deadlines
// improves versus shedding off.
func TestExperimentsDeadlineShedding(t *testing.T) {
	res, _ := DeadlineShedding(SheddingOpts{})
	if res.On.Shed == 0 {
		t.Fatal("shedding enabled but nothing was shed under overload")
	}
	if res.Off.Shed != 0 {
		t.Fatalf("shedding disabled yet %d requests shed", res.Off.Shed)
	}
	// The deterministic gap is ~2x (a doomed request holds its caller
	// for a full service time instead of failing in microseconds); 1.2x
	// leaves generous headroom for noisy CI hosts.
	if res.On.Goodput < res.Off.Goodput*1.2 {
		t.Fatalf("goodput with shedding %.0f/s, without %.0f/s: want >= 1.2x improvement",
			res.On.Goodput, res.Off.Goodput)
	}
	if res.On.TightLatency >= res.Off.TightLatency {
		t.Fatalf("tight-deadline latency on=%v off=%v: shedding should fail doomed requests faster",
			res.On.TightLatency, res.Off.TightLatency)
	}
}

// TestExperimentsBatch is the CI smoke for the batched-vs-looped
// harness (`go test -run TestExperiments`), asserting on the returned
// structured points rather than the printed table. What batching saves
// is gated exactly, per key: looped, one proxy-quota admission, one node
// visit and one WFQ task; batched, at most one admission per proxy, one
// node visit per node and one WFQ task per partition sub-batch. The
// wall-clock speed-up is a ratio of two timings on a shared host, and a
// cheaper point op shrinks it, so it is only logged.
func TestExperimentsBatch(t *testing.T) {
	// BatchComparison's stack: 3 nodes, a tenant of 4 partitions and 2
	// proxies, each a group of its own, so a batch splits over both.
	const samples, nodes, partitions, proxies = 5, 3, 4, 2
	sizes := []int{16, 64, 128}
	var points []BatchPoint
	var tbl Table
	speedups := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		points, tbl = BatchComparison(BatchOpts{Keys: 1024, Sizes: sizes})
		if len(points) != len(sizes) {
			t.Fatalf("points = %d, want %d", len(points), len(sizes))
		}
		for i, p := range points {
			if p.BatchSize != sizes[i] {
				t.Errorf("point %d batch size = %d, want %d", i, p.BatchSize, sizes[i])
			}
			if p.LoopedOps <= 0 || p.BatchedOps <= 0 {
				t.Errorf("size %d: non-positive throughput (looped %.0f, batched %.0f)", p.BatchSize, p.LoopedOps, p.BatchedOps)
			}
			if want := p.BatchedOps / p.LoopedOps; p.Speedup != want {
				t.Errorf("size %d: speedup %.3f inconsistent with ops ratio %.3f", p.BatchSize, p.Speedup, want)
			}
			if p.LoopedTasks != 1 {
				t.Errorf("size %d: looped path ran %.4f WFQ tasks per key, want 1", p.BatchSize, p.LoopedTasks)
			}
			if limit := float64(partitions) / float64(p.BatchSize); p.BatchedTasks <= 0 || p.BatchedTasks > limit {
				t.Errorf("size %d: batched path ran %.4f WFQ tasks per key, want (0, %.4f]", p.BatchSize, p.BatchedTasks, limit)
			}
			if p.LoopedVisits != 1 || p.LoopedAdmissions != 1 {
				t.Errorf("size %d: looped path made %.4f node visits and %.4f quota admissions per key, want 1 and 1",
					p.BatchSize, p.LoopedVisits, p.LoopedAdmissions)
			}
			if limit := float64(nodes) / float64(p.BatchSize); p.BatchedVisits <= 0 || p.BatchedVisits > limit {
				t.Errorf("size %d: batched path made %.4f node visits per key, want (0, %.4f]", p.BatchSize, p.BatchedVisits, limit)
			}
			if limit := float64(proxies) / float64(p.BatchSize); p.BatchedAdmissions <= 0 || p.BatchedAdmissions > limit {
				t.Errorf("size %d: batched path made %.4f quota admissions per key, want (0, %.4f]", p.BatchSize, p.BatchedAdmissions, limit)
			}
		}
		speedups = append(speedups, points[len(points)-1].Speedup)
	}
	slices.Sort(speedups)
	t.Logf("batch size %d speed-ups (logged, not gated) %.2f", sizes[len(sizes)-1], speedups)
	if len(tbl.Rows) != len(sizes) {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}

	// The trajectory adapter must produce a schema-valid result with
	// one metric pair (looped and batched tasks per key) per batch size.
	res := BatchBench(points)
	res.Schema = benchjson.SchemaVersion
	if err := benchjson.Validate(res); err != nil {
		t.Fatalf("BatchBench result invalid: %v", err)
	}
	if res.Experiment != "batch" || len(res.Metrics) != 2*len(sizes) {
		t.Fatalf("adapter emitted %d metrics for %q, want %d", len(res.Metrics), res.Experiment, 2*len(sizes))
	}
}

// TestExperimentsScan: a full traversal takes at least keys/size cursor
// pages, and larger pages take fewer.
func TestExperimentsScan(t *testing.T) {
	const keys = 1024
	sizes := []int{16, 128}
	points, tbl := ScanThroughput(ScanOpts{Keys: keys, PageSizes: sizes})
	if len(points) != len(sizes) || len(tbl.Rows) != len(sizes) {
		t.Fatalf("%d points, %d rows, want %d", len(points), len(tbl.Rows), len(sizes))
	}
	for i, p := range points {
		if p.PageSize != sizes[i] || p.Pages < keys/p.PageSize || p.KeysPerSec <= 0 {
			t.Errorf("point %d = %+v, want page size %d, at least %d pages, keys/s > 0", i, p, sizes[i], keys/sizes[i])
		}
	}
	if points[1].Pages >= points[0].Pages {
		t.Errorf("%d-key pages took %d pages, %d-key pages %d", sizes[1], points[1].Pages, sizes[0], points[0].Pages)
	}
}

// TestBenchAdaptersSchemaValid feeds each remaining trajectory adapter
// a representative structured result and requires a schema-valid
// envelope with stable, filename-safe experiment ids — the contract
// the committed BENCH_*.json files depend on.
func TestBenchAdaptersSchemaValid(t *testing.T) {
	cases := []struct {
		id  string
		res benchjson.Result
	}{
		{"scan", ScanBench([]ScanPoint{{PageSize: 16, Pages: 128, KeysPerSec: 50000}})},
		{"hotspot", HotspotBench([]HotspotRow{
			{Workload: "zipf s=1.2", Policy: "cache-everything", Gated: false, HitRatio: 0.4, OpsPerSec: 1000, NodeRU: 900, Recall10: 0.8},
			{Workload: "zipf s=1.2", Policy: "hotness-gated", Gated: true, HitRatio: 0.6, OpsPerSec: 1200, NodeRU: 600, Recall10: 0.8},
		}, HotspotSplit{PartitionsBefore: 2, PartitionsAfter: 4, Cycles: 3})},
		{"failover", FailoverBench(FailoverResult{
			Victim: "node-1", AffectedPartitions: 2, PromotedPartitions: 2,
			UnavailableWindow: 40 * time.Millisecond, AckedWrites: 4000, FollowerReadsServed: 12,
		})},
	}
	for _, tc := range cases {
		tc.res.Schema = benchjson.SchemaVersion
		if err := benchjson.Validate(tc.res); err != nil {
			t.Errorf("%s adapter invalid: %v", tc.id, err)
		}
		if tc.res.Experiment != tc.id {
			t.Errorf("adapter experiment id = %q, want %q", tc.res.Experiment, tc.id)
		}
	}
	// The hotspot metric names must be slugged (no spaces/parens from
	// the human-facing workload labels).
	hot := cases[1].res
	for name := range hot.Metrics {
		if strings.ContainsAny(name, " ()=%,") {
			t.Errorf("hotspot metric name %q not slugged", name)
		}
	}
	if _, ok := hot.Metrics["zipf_s_1_2_gated_hit_ratio"]; !ok {
		t.Errorf("expected slugged metric missing from %v", hot.Metrics)
	}
}

// TestBenchAdaptersDeterministic runs the batch and scan experiments
// twice and requires byte-identical trajectory files: the committed
// BENCH_*.json files are gated by regenerating them and diffing, so an
// adapter may emit only what the tree reproduces exactly.
func TestBenchAdaptersDeterministic(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		points, _ := BatchComparison(BatchOpts{Keys: 256, Sizes: []int{4, 16}})
		scans, _ := ScanThroughput(ScanOpts{Keys: 256, PageSizes: []int{16, 64}})
		for _, r := range []benchjson.Result{BatchBench(points), ScanBench(scans)} {
			if err := benchjson.Write(&buf, r); err != nil {
				t.Fatalf("%s: %v", r.Experiment, err)
			}
		}
		return buf.Bytes()
	}
	if first, second := encode(), encode(); !bytes.Equal(first, second) {
		t.Fatalf("trajectory differs between two runs:\n%s\n---\n%s", first, second)
	}
}

// TestExperimentsChangeStream is the CI smoke for the change-stream
// fan-out harness (`go test -run TestExperiments`): every subscriber
// drains every committed write, latency percentiles order sanely,
// and replay covers the whole history.
func TestExperimentsChangeStream(t *testing.T) {
	res, tbl := ChangeStreamFanout(ChangeStreamOpts{Subscribers: 4, Events: 400, Partitions: 2})
	if want := res.Subscribers * res.Events; res.Delivered != want {
		t.Fatalf("delivered %d events, want %d", res.Delivered, want)
	}
	if res.EventsPerSec <= 0 {
		t.Fatalf("fan-out throughput = %.0f events/s", res.EventsPerSec)
	}
	if res.NotifyP50 <= 0 || res.NotifyP99 < res.NotifyP50 {
		t.Fatalf("notify p50=%v p99=%v", res.NotifyP50, res.NotifyP99)
	}
	if res.ReplayEvents != res.Events {
		t.Fatalf("replay saw %d events, want %d", res.ReplayEvents, res.Events)
	}
	if res.ReplayMBPerSec <= 0 {
		t.Fatalf("replay throughput = %.1f MB/s", res.ReplayMBPerSec)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}
