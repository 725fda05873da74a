package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/datanode"
	"abase/internal/metrics"
	"abase/internal/partition"
	"abase/internal/quota"
	"abase/internal/wfq"
)

// isoStack is the two-tenants-on-one-DataNode setup both isolation
// experiments (Figures 6 and 7) use. Tenant 1's traffic optionally
// passes a proxy-level limiter (Figure 6's intervention).
type isoStack struct {
	node      *datanode.Node
	t1        partition.ID
	t2        partition.ID
	t1Limiter *quota.Bucket
	proxyOn   atomic.Bool
	// timeout, when non-zero, is the client deadline: requests that
	// complete later count as failures (Figure 6's clients give up on
	// requests stuck behind an overwhelmed request queue).
	timeout time.Duration
}

// Keyspace and value size for the isolation runs: a keyspace far
// larger than the node cache, accessed near-uniformly, keeps the hit
// ratio low so a read costs ≈ 512·(1−hit)/2048 ≈ 0.25 RU and quota
// admission actually binds (with a hot cache, the cache-aware RU makes
// reads nearly free and no quota would ever trigger).
const (
	isoKeys    = 4096
	isoValSize = 512
	isoReadRU  = 0.25
)

func newIsoStack(tenantQuota, partitionQuota float64) *isoStack {
	// Service times are in the millisecond regime so timer granularity
	// (the only timing source on small CI hosts) stays ≪ service time.
	node := datanode.New(datanode.Config{
		ID: "iso-node",
		Cost: datanode.CostModel{
			CPUTime:     50 * time.Microsecond,
			IOReadTime:  2 * time.Millisecond,
			IOWriteTime: 500 * time.Microsecond,
		},
		// One basic I/O thread ⇒ ~500 reads/s service capacity, so the
		// burst phases genuinely saturate the node.
		WFQ:           wfq.Config{CPUWorkers: 2, BasicIOThreads: 1, ExtraIOThreads: 1},
		RejectCost:    time.Millisecond,
		AdmitWorkers:  1,
		AdmitQueueCap: 128,
		AdmitCost:     200 * time.Microsecond,
		// A near-useless cache keeps the workload cache-adverse, so a
		// read costs a steady ≈0.25 RU and quota admission decisions
		// are visible (with a warm cache the cache-aware RU would make
		// the traffic nearly free — Challenge 1 working as designed).
		CacheBytes: 4 << 10,
	})
	t1 := partition.ID{Tenant: "tenant-1", Index: 0}
	t2 := partition.ID{Tenant: "tenant-2", Index: 0}
	node.AddReplica(partition.ReplicaID{Partition: t1}, partitionQuota, true)
	node.AddReplica(partition.ReplicaID{Partition: t2}, partitionQuota, true)
	s := &isoStack{
		node:      node,
		t1:        t1,
		t2:        t2,
		t1Limiter: quota.NewBucket(tenantQuota, tenantQuota, nil),
	}
	// Preload through the replication path: system traffic bypasses
	// quotas and the WFQ, so the fixture is instant and quota buckets
	// start full.
	val := make([]byte, isoValSize)
	for i := 0; i < isoKeys; i++ {
		k := []byte(fmt.Sprintf("key-%012d", i))
		node.ApplyReplicated(t1, 0, datanode.WriteOp{Key: k, Value: val})
		node.ApplyReplicated(t2, 0, datanode.WriteOp{Key: k, Value: val})
	}
	return s
}

// window is one phase's outcome for a tenant.
type window struct {
	SuccessQPS float64
	ErrorQPS   float64
	P99        time.Duration
}

// IsolationResult is the per-phase outcome of an isolation experiment.
type IsolationResult struct {
	Phase string
	T1    window
	T2    window
}

// drive offers rate requests/second of reads for dur at the node,
// open-loop (a new goroutine per request, paced in 2ms batches), and
// returns the observed outcome. When s.proxyOn and the tenant is T1,
// traffic first passes the proxy-level limiter; intercepted requests
// count as errors without touching the node.
func (s *isoStack) drive(pid partition.ID, rate float64, dur time.Duration) window {
	const tick = 2 * time.Millisecond
	var success, errs atomic.Int64
	hist := metrics.NewHistogram()
	var wg sync.WaitGroup
	deadline := clk.Now().Add(dur)
	carry := 0.0
	seq := 0
	last := clk.Now()
	for clk.Now().Before(deadline) {
		now := clk.Now()
		carry += rate * now.Sub(last).Seconds()
		last = now
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%012d", (seq+i*37)%isoKeys))
			seq++
			if pid == s.t1 && s.proxyOn.Load() {
				if !s.t1Limiter.Allow(isoReadRU, now) {
					errs.Add(1) // intercepted at the proxy
					continue
				}
			}
			wg.Add(1)
			go func(k []byte) {
				defer wg.Done()
				start := clk.Now()
				_, err := s.node.Get(bg, pid, k)
				lat := clk.Since(start)
				switch {
				case err == nil && (s.timeout == 0 || lat <= s.timeout):
					success.Add(1)
					hist.Observe(lat)
				case err == nil: // completed past the client deadline
					errs.Add(1)
				case errors.Is(err, datanode.ErrThrottled),
					errors.Is(err, datanode.ErrOverloaded):
					errs.Add(1)
				default:
					errs.Add(1)
				}
			}(k)
		}
		clk.Sleep(tick)
	}
	wg.Wait()
	secs := dur.Seconds()
	return window{
		SuccessQPS: float64(success.Load()) / secs,
		ErrorQPS:   float64(errs.Load()) / secs,
		P99:        hist.Quantile(0.99),
	}
}

// runIsolationPhase drives both tenants concurrently.
func (s *isoStack) runIsolationPhase(name string, t1Rate, t2Rate float64, dur time.Duration) IsolationResult {
	var w1, w2 window
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); w1 = s.drive(s.t1, t1Rate, dur) }()
	go func() { defer wg.Done(); w2 = s.drive(s.t2, t2Rate, dur) }()
	wg.Wait()
	return IsolationResult{Phase: name, T1: w1, T2: w2}
}

// Figure6Opts scales the proxy-quota ablation.
type Figure6Opts struct {
	// BaseQPS is each tenant's normal offered rate (default 1000).
	BaseQPS float64
	// BurstQPS is T1's burst offered rate (default 25000).
	BurstQPS float64
	// PhaseDur is each phase's duration (default 600ms).
	PhaseDur time.Duration
}

// Figure6 reproduces the proxy-quota ablation (§6.2, Figure 6):
//
//	phase 1: both tenants at low traffic — everything succeeds.
//	phase 2: T1 bursts far beyond its tenant quota with the proxy
//	         disabled. The flood overwhelms the DataNode request
//	         queue; the node burns resources rejecting T1's over-quota
//	         requests, and T2's success QPS collapses.
//	phase 3: T1's proxy quota is enabled. Excess traffic is
//	         intercepted before the node; T2 recovers and both
//	         tenants' latencies return to normal.
func Figure6(opts Figure6Opts) ([]IsolationResult, Table) {
	if opts.BaseQPS <= 0 {
		opts.BaseQPS = 50
	}
	if opts.BurstQPS <= 0 {
		opts.BurstQPS = 2000
	}
	if opts.PhaseDur <= 0 {
		opts.PhaseDur = 1500 * time.Millisecond
	}
	// Tenant quota 25 RU/s ⇒ the proxy admits ~100 reads/s at ≈0.25 RU
	// each. Partition quota 3× that before the node rejects.
	s := newIsoStack(25, 25)
	s.timeout = 100 * time.Millisecond
	defer s.node.Close()

	var results []IsolationResult
	results = append(results,
		s.runIsolationPhase("baseline (low traffic)", opts.BaseQPS, opts.BaseQPS, opts.PhaseDur))
	results = append(results,
		s.runIsolationPhase("T1 burst, proxy OFF", opts.BurstQPS, opts.BaseQPS, opts.PhaseDur))
	s.proxyOn.Store(true)
	results = append(results,
		s.runIsolationPhase("T1 burst, proxy ON", opts.BurstQPS, opts.BaseQPS, opts.PhaseDur))

	return results, isolationTable("Figure 6: proxy quota ablation", results)
}

// Figure7Opts scales the partition-quota + WFQ ablation.
type Figure7Opts struct {
	BaseQPS  float64
	BurstQPS float64
	PhaseDur time.Duration
}

// Figure7 reproduces the partition-quota + dual-layer-WFQ ablation
// (§6.2, Figure 7):
//
//	phase 1: low traffic, partition quota off — all healthy.
//	phase 2: T1 directs a heavy skewed burst at its partition. It stays
//	         under the tenant quota, so nothing is intercepted; the
//	         node must serve everything. The dual-layer WFQ preserves
//	         T2's latency (T2's throughput dips moderately), while
//	         T1's own latency inflates by an order of magnitude.
//	phase 3: the partition quota is on: T1's success rate drops to
//	         the 3× partition-quota cap, the excess is rejected as
//	         error QPS, and T2 returns to normal.
//
// The node always enforces partition quotas, so "quota off" is an
// unbounded quota: both tenants' partitions start at the same
// unbounded quota, which keeps their WFQ shares 1:1, and phase 3 sets
// both to the real quota.
func Figure7(opts Figure7Opts) ([]IsolationResult, Table) {
	if opts.BaseQPS <= 0 {
		opts.BaseQPS = 50
	}
	if opts.BurstQPS <= 0 {
		opts.BurstQPS = 600
	}
	if opts.PhaseDur <= 0 {
		opts.PhaseDur = 1500 * time.Millisecond
	}
	// Unbounded tenant quota (the proxy never binds); partition quota
	// 25 RU/s in phase 3 ⇒ cap ≈ 3×25/0.25 = 300 reads/s.
	const partitionQuota = 25
	s := newIsoStack(unbounded, unbounded)
	defer s.node.Close()

	var results []IsolationResult
	results = append(results,
		s.runIsolationPhase("baseline (quota off)", opts.BaseQPS, opts.BaseQPS, opts.PhaseDur))
	results = append(results,
		s.runIsolationPhase("T1 skewed burst, quota OFF", opts.BurstQPS, opts.BaseQPS, opts.PhaseDur))
	s.node.SetPartitionQuota(s.t1, partitionQuota)
	s.node.SetPartitionQuota(s.t2, partitionQuota)
	// Run the quota-on phase longer: the partition bucket enters it
	// full (3× quota of burst allowance, by design), so the success
	// rate converges to the cap only after that allowance drains.
	results = append(results,
		s.runIsolationPhase("T1 skewed burst, quota ON", opts.BurstQPS, opts.BaseQPS, 3*opts.PhaseDur))
	tbl := isolationTable("Figure 7: partition quota + dual-layer WFQ ablation", results)
	tbl.Notes = append(tbl.Notes, fmt.Sprintf(
		"quota off: both partitions at an unbounded quota (WFQ shares 1:1); quota on: both at %d RU/s", partitionQuota))
	return results, tbl
}

func isolationTable(title string, results []IsolationResult) Table {
	t := Table{
		Title: title,
		Header: []string{"phase", "T1 success QPS", "T1 error QPS", "T1 p99",
			"T2 success QPS", "T2 error QPS", "T2 p99"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Phase,
			f(r.T1.SuccessQPS), f(r.T1.ErrorQPS), r.T1.P99.Round(time.Microsecond).String(),
			f(r.T2.SuccessQPS), f(r.T2.ErrorQPS), r.T2.P99.Round(time.Microsecond).String(),
		})
	}
	return t
}
