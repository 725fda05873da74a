package experiments

import (
	"errors"
	"fmt"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
	"abase/internal/workload"
)

// HotspotOpts scales the hotspot detection & mitigation experiment.
type HotspotOpts struct {
	// Ops is the read count per policy run (default 30000).
	Ops int
	// Keys is the keyspace size (default 40000).
	Keys int
	// Skew is the Zipf exponent of the skewed workload (default 1.1).
	Skew float64
	// ValueBytes is the stored value size (default 1024).
	ValueBytes int
	// CacheBytes is the per-proxy AU-LRU capacity (default 16 KiB —
	// deliberately scarce, roughly 16 values, so admission policy is
	// what decides who survives).
	CacheBytes int64
	// HotKeys is the hot set size of the hot-key mix (default 16).
	HotKeys int
	// HotFraction is the share of hot-key-mix traffic aimed at the hot
	// set (default 0.5).
	HotFraction float64
	// SplitThreshold is the sustained per-partition heat (ops/sec,
	// decayed) that triggers the automatic doubling split scenario
	// (default 100).
	SplitThreshold float64
	// SplitCycles caps how many monitor cycles the split scenario runs
	// (default 6).
	SplitCycles int
}

func (o HotspotOpts) withDefaults() HotspotOpts {
	if o.Ops <= 0 {
		o.Ops = 30000
	}
	if o.Keys <= 0 {
		o.Keys = 40000
	}
	if o.Skew <= 0 {
		// Moderate skew: the hot head matters but the cold tail still
		// carries enough traffic to churn an ungated cache.
		o.Skew = 1.1
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 1024
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 16 << 10
	}
	if o.HotKeys <= 0 {
		o.HotKeys = 16
	}
	if o.HotFraction <= 0 {
		o.HotFraction = 0.5
	}
	if o.SplitThreshold <= 0 {
		// Low relative to the driver's real-clock op rate (~100k/s on
		// an idle machine) so a heavily contended CI runner still
		// clears it.
		o.SplitThreshold = 50
	}
	if o.SplitCycles <= 0 {
		o.SplitCycles = 6
	}
	return o
}

// HotspotRow is one (workload, admission policy) outcome.
type HotspotRow struct {
	Workload  string
	Policy    string // "cache-everything" or "hotness-gated"
	Gated     bool
	HitRatio  float64
	OpsPerSec float64
	NodeRU    float64 // RU the DataNodes charged (origin load)
	// Recall10 is the data-plane detector's top-10 recall against the
	// generator's true hot set, measured in a separate uncached pass of
	// the same workload (once caching works, hot keys stop reaching the
	// data plane — that is the mitigation succeeding, so recall must be
	// sampled on raw traffic). Identical for both policy rows.
	Recall10 float64
}

// HotspotSplit is the sustained-heat auto-split outcome.
type HotspotSplit struct {
	PartitionsBefore int
	PartitionsAfter  int
	// Cycles is the monitor cycle on which the split fired (0 = never).
	Cycles int
}

// HotspotMitigation measures what the hotspot subsystem buys under
// skewed traffic. For each workload (Zipf and a hot-key mix) it runs
// the same read stream through a proxy whose AU-LRU is deliberately
// tiny, once with the legacy cache-everything policy and once with
// hotness-gated admission (only keys the heavy-hitter sketch flags get
// a slot). The gated run should hold a materially higher hit ratio and
// throughput because cold singleton reads can no longer churn the hot
// set out of scarce proxy memory. A third scenario drives sustained
// heat at a tenant and reports the automatic doubling split the
// MetaServer's heat monitor performs — no manual SplitTenantPartitions.
func HotspotMitigation(opts HotspotOpts) ([]HotspotRow, HotspotSplit, Table) {
	opts = opts.withDefaults()

	type wl struct {
		name  string
		truth int // size of the generator's true hot set, for recall
		gen   func(seed int64) workload.KeyGen
	}
	workloads := []wl{
		{fmt.Sprintf("zipf s=%.1f", opts.Skew), 10, func(seed int64) workload.KeyGen {
			return workload.NewZipfKeys(opts.Keys, opts.Skew, seed)
		}},
		{fmt.Sprintf("hot-key mix (%d keys, %.0f%%)", opts.HotKeys, opts.HotFraction*100), opts.HotKeys, func(seed int64) workload.KeyGen {
			return workload.NewHotspotKeys(opts.Keys, opts.HotKeys, opts.HotFraction, seed)
		}},
	}

	var rows []HotspotRow
	for wi, w := range workloads {
		recall := detectionRecall(w.gen(int64(wi)+11), w.truth, opts)
		for _, gated := range []bool{false, true} {
			s := newStack(metaserver.Config{}, 3, smallCacheNode, fmt.Sprintf("hs-%d-%v", wi, gated), 4)
			threshold := 0 // 0 = default gate
			if !gated {
				threshold = -1 // negative disables the gate entirely
			}
			fleet := s.fleet(proxy.Config{
				EnableCache:       true,
				CacheBytes:        opts.CacheBytes,
				CacheTTL:          time.Hour,
				HotAdmitThreshold: threshold,
			}, 1, 1, int64(wi))
			s.preload(opts.Keys, opts.ValueBytes)
			gen := w.gen(int64(wi) + 11)
			start := clk.Now()
			for op := 0; op < opts.Ops; op++ {
				if _, err := fleet.Get(bg, gen.Next()); err != nil && !errors.Is(err, proxy.ErrNotFound) {
					panic(err)
				}
			}
			elapsed := clk.Since(start).Seconds()
			row := HotspotRow{
				Workload:  w.name,
				Gated:     gated,
				Policy:    "cache-everything",
				HitRatio:  fleet.AggregateStats().HitRatio(),
				OpsPerSec: float64(opts.Ops) / elapsed,
				NodeRU:    s.nodeRU(),
				Recall10:  recall,
			}
			if gated {
				row.Policy = "hotness-gated"
			}
			rows = append(rows, row)
			s.close()
		}
	}

	split := autoSplitScenario(opts)

	tbl := Table{
		Title:  "Hotspot mitigation: hotness-gated AU-LRU admission under skew",
		Header: []string{"workload", "policy", "hit ratio", "keys/s", "node RU", "top-10 recall"},
		Notes: []string{
			fmt.Sprintf("%d reads over %d keys, %d B values, %d B proxy cache per run",
				opts.Ops, opts.Keys, opts.ValueBytes, opts.CacheBytes),
			"gated: a read fill needs the key's sketch estimate at the threshold, and a fill that would evict must also beat its victim, one hit since stored, in the same sketch, so cold singletons cannot churn the hot set; a write earns no slot",
			"top-10 recall: data-plane heavy hitters vs the true hot set, sampled on an uncached pass",
		},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{
			r.Workload, r.Policy, pct(r.HitRatio),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.0f", r.NodeRU),
			pct(r.Recall10),
		})
	}
	if split.Cycles > 0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"sustained heat: partitions %d → %d on monitor cycle %d (threshold %.0f ops/s, no manual split)",
			split.PartitionsBefore, split.PartitionsAfter, split.Cycles, opts.SplitThreshold))
	} else {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"sustained heat: NO split fired within %d cycles (threshold %.0f ops/s)",
			opts.SplitCycles, opts.SplitThreshold))
	}
	return rows, split, tbl
}

// detectionRecall runs a short uncached pass of the workload against a
// fresh stack and reports what fraction of the data plane's top-10
// heavy hitters land inside the generator's true hot set (key indexes
// 0..truthSize-1 for both generators). Uncached because mitigation, by
// design, hides hot keys from the data plane.
func detectionRecall(gen workload.KeyGen, truthSize int, opts HotspotOpts) float64 {
	s := newStack(metaserver.Config{}, 3, smallCacheNode, "hs-recall", 4)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 1, 1, 5)
	s.preload(opts.Keys, opts.ValueBytes)
	ops := opts.Ops / 3
	if ops < 2000 {
		ops = 2000
	}
	for op := 0; op < ops; op++ {
		if _, err := fleet.Get(bg, gen.Next()); err != nil && !errors.Is(err, proxy.ErrNotFound) {
			panic(err)
		}
	}
	hot, err := fleet.HotKeys(bg, 10)
	if err != nil || len(hot) == 0 {
		return 0
	}
	truth := make(map[string]bool, truthSize)
	for i := 0; i < truthSize; i++ {
		truth[fmt.Sprintf("key-%012d", i)] = true
	}
	recalled := 0
	for _, hk := range hot {
		if truth[string(hk.Key)] {
			recalled++
		}
	}
	return float64(recalled) / float64(len(hot))
}

// autoSplitScenario drives sustained hot traffic at a 2-partition
// tenant whose MetaServer has the heat monitor armed, calling
// MonitorPartitionHeat once per cycle of traffic. The expected outcome:
// after HeatSplitWindows consecutive over-threshold cycles the
// partition count doubles automatically.
func autoSplitScenario(opts HotspotOpts) HotspotSplit {
	s := newStack(metaserver.Config{
		HeatSplitThreshold: opts.SplitThreshold,
		HeatSplitWindows:   2,
	}, 3, datanode.Config{WFQ: wfq.Config{CPUWorkers: 2, BasicIOThreads: 2}}, "hs-split", 2)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 1, 1, 3)
	out := HotspotSplit{PartitionsBefore: 2, PartitionsAfter: 2}
	gen := workload.NewZipfKeys(opts.Keys, opts.Skew, 17)
	perCycle := opts.Ops / opts.SplitCycles
	if perCycle < 1000 {
		perCycle = 1000
	}
	for cy := 1; cy <= opts.SplitCycles; cy++ {
		for op := 0; op < perCycle; op++ {
			if _, err := fleet.Get(bg, gen.Next()); err != nil && !errors.Is(err, proxy.ErrNotFound) {
				panic(err)
			}
		}
		if split := s.meta.MonitorPartitionHeat(); len(split) > 0 {
			out.Cycles = cy
			break
		}
	}
	if n, err := s.meta.NumPartitions(s.tenant.Name); err == nil {
		out.PartitionsAfter = n
	}
	return out
}
