package experiments

// Perf-trajectory adapters: each measuring experiment's structured
// result folds into one benchjson.Result so abase-bench -json-out can
// write a BENCH_<experiment>.json trajectory point. An adapter emits
// only counts and ratios of counts, which a given tree reproduces
// exactly; the experiment's timings stay in its printed table.

import (
	"fmt"
	"strings"

	"abase/internal/benchjson"
)

// slug flattens a human-facing label ("hot-key mix (100 keys, 50%)")
// into a stable snake_case metric-name fragment.
func slug(label string) string {
	var b strings.Builder
	lastUnder := true
	for _, c := range strings.ToLower(label) {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
			lastUnder = false
		case lastUnder: // collapse runs of separators
		default:
			b.WriteByte('_')
			lastUnder = true
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// BatchBench folds the batched-vs-looped comparison into a trajectory
// point: per batch size, the WFQ tasks each path ran per key.
func BatchBench(points []BatchPoint) benchjson.Result {
	m := map[string]benchjson.Metric{}
	for _, p := range points {
		m[fmt.Sprintf("looped_tasks_per_key_b%d", p.BatchSize)] = benchjson.Metric{Value: p.LoopedTasks, Unit: "tasks/key"}
		m[fmt.Sprintf("batched_tasks_per_key_b%d", p.BatchSize)] = benchjson.Metric{Value: p.BatchedTasks, Unit: "tasks/key"}
	}
	return benchjson.Result{Experiment: "batch", Metrics: m}
}

// ScanBench folds the distributed-scan traversal into a trajectory
// point: the cursor pages a full traversal took per page size.
func ScanBench(points []ScanPoint) benchjson.Result {
	m := map[string]benchjson.Metric{}
	for _, p := range points {
		m[fmt.Sprintf("pages_p%d", p.PageSize)] = benchjson.Metric{Value: float64(p.Pages), Unit: "pages"}
	}
	return benchjson.Result{Experiment: "scan", Metrics: m}
}

// HotspotBench folds the hotspot-mitigation outcome into a trajectory
// point: per (workload, policy) row the hit ratio and origin RU, plus
// the detector recall and the auto-split outcome.
func HotspotBench(rows []HotspotRow, split HotspotSplit) benchjson.Result {
	m := map[string]benchjson.Metric{}
	for _, r := range rows {
		policy := "ungated"
		if r.Gated {
			policy = "gated"
		}
		prefix := fmt.Sprintf("%s_%s", slug(r.Workload), policy)
		m[prefix+"_hit_ratio"] = benchjson.Metric{Value: r.HitRatio, Unit: "ratio"}
		m[prefix+"_node_ru"] = benchjson.Metric{Value: r.NodeRU, Unit: "RU"}
		m[slug(r.Workload)+"_recall10"] = benchjson.Metric{Value: r.Recall10, Unit: "ratio"}
	}
	m["split_cycles"] = benchjson.Metric{Value: float64(split.Cycles), Unit: "cycles"}
	m["partitions_after_split"] = benchjson.Metric{Value: float64(split.PartitionsAfter), Unit: "partitions"}
	return benchjson.Result{Experiment: "hotspot", Metrics: m}
}

// FailoverBench folds the failover-availability outcome into a
// trajectory point: what the outage cost in writes, and what kept
// serving through it.
func FailoverBench(r FailoverResult) benchjson.Result {
	return benchjson.Result{Experiment: "failover", Metrics: map[string]benchjson.Metric{
		"unavailable_writes":    {Value: float64(r.UnavailableWrites), Unit: "writes"},
		"lost_acked_writes":     {Value: float64(r.LostAckedWrites), Unit: "writes"},
		"acked_writes":          {Value: float64(r.AckedWrites), Unit: "writes"},
		"affected_partitions":   {Value: float64(r.AffectedPartitions), Unit: "partitions"},
		"promoted_partitions":   {Value: float64(r.PromotedPartitions), Unit: "partitions"},
		"follower_reads_served": {Value: float64(r.FollowerReadsServed), Unit: "reads"},
	}}
}
