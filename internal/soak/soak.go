package soak

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"abase"
	"abase/internal/benchjson"
	"abase/internal/clock"
	"abase/internal/faultinject"
	"abase/internal/forecast"
	"abase/internal/metrics"
	"abase/internal/wfq"
	"abase/internal/workload"
)

// Config sizes a soak run. The zero value is not runnable; start from
// DefaultConfig (the full bench run) or ShortConfig (the CI smoke) and
// override.
//
// Determinism: the run is driven single-threaded from a seeded
// generator on a simulated clock, quotas are provisioned so admission
// never throttles, caches that depend on wall-clock TTLs are disabled,
// and failovers complete before the next operation is issued — so
// every client-visible outcome (ops issued, acks, billed RU, the
// resize schedule) is a pure function of the seed. The one exception
// is the rescheduler: partition heat decays on the real clock, so
// *which* migrations fire varies run to run; the invariant is only
// that some do. Report.Fingerprint covers exactly the deterministic
// subset.
type Config struct {
	// Seed drives every generator in the run.
	Seed int64
	// Days is the simulated duration.
	Days int
	// IntervalsPerHour is how many batches of operations each
	// simulated hour is split into.
	IntervalsPerHour int
	// OpsPerInterval is the operation count per interval at diurnal
	// factor 1.0; the actual count follows the day/night curve.
	OpsPerInterval int
	// DiurnalAmp is the curve's amplitude: hourly load swings between
	// (1−amp)× and (1+amp)× the base rate, peaking mid-day.
	DiurnalAmp float64
	// Users is the simulated user population; each operation is issued
	// by a Zipf-distributed user and keys are user ids.
	Users int
	// ValueBytes is the written value size.
	ValueBytes float64
	// ReadRatio is the fraction of read operations.
	ReadRatio float64
	// KeySkew is the Zipf skew of the user distribution (> 1).
	KeySkew float64
	// Partitions is the tenant's partition count.
	Partitions int
	// BaseNodes, MaxNodes, and Replicas shape the pool. The autoscaler
	// may resize within [Replicas, MaxNodes].
	BaseNodes int
	MaxNodes  int
	Replicas  int
	// QuotaRU is the tenant quota. It is deliberately generous: the
	// soak's invariants are about accounting and durability, and a
	// throttle fired by a real-time token refill would make acks
	// nondeterministic.
	QuotaRU float64
	// ScalerNodeRU is the billed RU one node should serve per
	// simulated hour at Headroom utilization — the autoscaler targets
	// ceil(forecast / (ScalerNodeRU × Headroom)) nodes.
	ScalerNodeRU float64
	// Headroom is the autoscaler's target utilization (0 < h ≤ 1).
	Headroom float64
	// FailoverAtHours lists simulated hours at whose start the current
	// primary of partition 0 is killed and failed over. A kill is
	// skipped if the previous victim has not been revived yet.
	FailoverAtHours []int
	// ReviveAfter is how much simulated time a killed node stays down.
	ReviveAfter time.Duration
	// RebalanceTheta is the rescheduler's division threshold (absolute
	// utilization; node heat is a small fraction of the default 100k
	// RU capacity, so this must be fine-grained).
	RebalanceTheta float64
	// Expect is the invariant bar the checker enforces.
	Expect Expectations
}

// DefaultConfig is the full-size soak the bench binary runs: three
// simulated days over a two-million-user population.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Days:             3,
		IntervalsPerHour: 6,
		OpsPerInterval:   1000,
		DiurnalAmp:       0.7,
		Users:            2_000_000,
		ValueBytes:       256,
		ReadRatio:        0.7,
		KeySkew:          1.2,
		Partitions:       8,
		BaseNodes:        4,
		MaxNodes:         8,
		Replicas:         3,
		QuotaRU:          1e6,
		ScalerNodeRU:     450,
		Headroom:         0.75,
		FailoverAtHours:  []int{10, 34, 58},
		ReviveAfter:      2 * time.Hour,
		RebalanceTheta:   0.001,
		Expect:           DefaultExpectations(),
	}
}

// ShortConfig is the CI smoke: one simulated day, small enough for
// `go test -short -race` yet still required to resize, fail over,
// migrate, and balance the books.
func ShortConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 1
	cfg.IntervalsPerHour = 4
	cfg.OpsPerInterval = 150
	cfg.Users = 5_000
	cfg.ScalerNodeRU = 40
	cfg.MaxNodes = 7
	cfg.FailoverAtHours = []int{9}
	cfg.Expect.MinFailovers = 1
	return cfg
}

// ResizeEvent records one autoscaler action: the pool moved from From
// to To nodes at the start of simulated hour Hour.
type ResizeEvent struct {
	Hour     int
	From, To int
}

// PhaseStats aggregates client-observed latency over one six-hour
// diurnal phase. Latencies are wall-clock (the cluster's cost model
// runs in real nanoseconds), so they are measurement, not invariant.
type PhaseStats struct {
	Name string
	Ops  int64
	P50  time.Duration
	P99  time.Duration
}

// phaseNames are the four six-hour diurnal phases, indexed by hour/6.
var phaseNames = [4]string{"night", "morning", "afternoon", "evening"}

// Report is the soak's outcome: invariant counters, the autoscaler's
// resize schedule, and per-phase latency measurements.
type Report struct {
	Seed          int64
	SimulatedSpan time.Duration
	OpsIssued     int64
	Acked         int64
	AuditReads    int64
	LostAcked     int64
	Failovers     int
	Migrations    int
	Resizes       int
	FinalNodes    int
	PeakNodes     int
	ChargedRU     float64
	RefundedRU    float64
	BilledRU      float64
	Availability  float64
	ResizeEvents  []ResizeEvent
	Phases        []PhaseStats
	// Violations is the checker's verdict; empty means every invariant
	// held.
	Violations []string
}

// outcome is one deterministic field of a Report: a trajectory metric
// name, its unit and its value.
type outcome struct {
	name, unit string
	value      float64
}

// outcomes lists the run's deterministic outcomes: two runs with the
// same Config produce identical lists. Fingerprint digests exactly this
// list and ToResult emits exactly this list, so the determinism test
// and the committed trajectory cannot drift apart. Migration counts,
// the RU balance ratio and latencies are left out — heat decays on the
// real clock, so the rescheduler's exact plan (and the books it moves)
// is timing-dependent even though the client-visible stream is not.
func (r Report) outcomes() []outcome {
	out := []outcome{
		{"ops_issued", "count", float64(r.OpsIssued)},
		{"acked_writes", "count", float64(r.Acked)},
		{"audit_reads", "count", float64(r.AuditReads)},
		{"lost_acked_writes", "count", float64(r.LostAcked)},
		{"availability", "ratio", r.Availability},
		{"failovers", "count", float64(r.Failovers)},
		{"pool_resizes", "count", float64(r.Resizes)},
		{"peak_nodes", "count", float64(r.PeakNodes)},
		{"final_nodes", "count", float64(r.FinalNodes)},
		{"ru_billed", "RU", r.BilledRU},
	}
	for _, e := range r.ResizeEvents {
		out = append(out, outcome{fmt.Sprintf("resize_h%02d_nodes", e.Hour), "nodes", float64(e.To)})
	}
	return out
}

// Fingerprint digests the run's deterministic outcomes.
func (r Report) Fingerprint() string {
	var b strings.Builder
	for _, o := range r.outcomes() {
		fmt.Fprintf(&b, "%s=%v ", o.name, o.value)
	}
	return b.String()
}

// ToResult converts the report's deterministic outcomes into the
// trajectory schema.
func (r Report) ToResult() benchjson.Result {
	res := benchjson.Result{Experiment: "soak", Metrics: map[string]benchjson.Metric{}}
	for _, o := range r.outcomes() {
		res.Metrics[o.name] = benchjson.Metric{Value: o.value, Unit: o.unit}
	}
	return res
}

// ledgerTracker accumulates per-node monotone counters into a running
// total that survives node decommissions: a removed node's history
// stays in the total, only its final partial hour is dropped (equally
// from both sides of the charged-vs-billed comparison).
type ledgerTracker struct {
	prev  map[string]float64
	total float64
}

func newLedgerTracker() *ledgerTracker {
	return &ledgerTracker{prev: make(map[string]float64)}
}

func (lt *ledgerTracker) observe(id string, cur float64) {
	if d := cur - lt.prev[id]; d > 0 {
		lt.total += d
	}
	lt.prev[id] = cur
}

// diurnalFactor is the load multiplier for one hour of day: a sine
// day/night curve bottoming near 0:00 and peaking near 12:00.
func diurnalFactor(amp float64, hourOfDay int) float64 {
	f := 1 + amp*math.Sin(2*math.Pi*float64(hourOfDay-6)/24)
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// Run executes the soak and returns its report. The report is always
// populated (including on invariant failure); the error is non-nil
// when ctx was canceled, the cluster could not be assembled, or any
// invariant was violated.
func Run(ctx context.Context, cfg Config) (Report, error) {
	const tenantName = "soak"
	report := Report{Seed: cfg.Seed, SimulatedSpan: time.Duration(cfg.Days) * 24 * time.Hour}

	sim := clock.NewSim(time.Unix(0, 0).UTC())
	simStart := sim.Now()
	inj := faultinject.New(sim)
	wall := clock.Real{}

	cluster, err := abase.NewCluster(abase.ClusterConfig{
		Nodes:    cfg.BaseNodes,
		Replicas: cfg.Replicas,
		WFQ:      wfq.Config{CPUWorkers: 2, BasicIOThreads: 2},
		// A 1-byte node cache makes every read a miss. This is a
		// determinism choice, not an accident: read billing discounts
		// cache hits, and hit patterns depend on timing-sensitive
		// replica placement, so an effective cache would make billed RU
		// — and through the forecaster, the resize schedule — vary run
		// to run.
		NodeCacheBytes:  1,
		DownAfterProbes: 1,
	})
	if err != nil {
		return report, err
	}
	defer cluster.Close()
	tenant, err := cluster.CreateTenant(abase.TenantSpec{
		Name:       tenantName,
		QuotaRU:    cfg.QuotaRU,
		Partitions: cfg.Partitions,
		// The proxy AU-LRU expires on wall-clock TTLs; disable it so
		// reads deterministically reach the data plane.
		DisableProxyCache: true,
	})
	if err != nil {
		return report, err
	}
	client := tenant.Client()

	users := workload.NewZipfKeys(cfg.Users, cfg.KeySkew, cfg.Seed)
	mix := workload.NewMix(cfg.ReadRatio, cfg.Seed+1)

	// model holds every acknowledged write's expected value; audits
	// read it back through the client after each failover and at the
	// end of the run.
	model := make(map[string]string)
	var writeSeq int64
	value := func() string {
		writeSeq++
		return fmt.Sprintf("%0*d", int(cfg.ValueBytes), writeSeq)
	}

	audit := func() error {
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v, err := client.Get(ctx, []byte(k))
			report.AuditReads++
			if err != nil || string(v) != model[k] {
				report.LostAcked++
			}
			if err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	}

	charged := newLedgerTracker()
	refunded := newLedgerTracker()
	billed := newLedgerTracker()
	collect := func() {
		for _, n := range cluster.Nodes() {
			c, r := n.TenantRULedger(tenantName)
			charged.observe(n.ID(), c)
			refunded.observe(n.ID(), r)
			billed.observe(n.ID(), n.TenantStats(tenantName).RUUsed)
		}
	}

	failAt := make(map[int]bool, len(cfg.FailoverAtHours))
	for _, h := range cfg.FailoverAtHours {
		failAt[h] = true
	}

	checker := NewChecker(cfg.Expect)
	snapshot := func(interval int) {
		checker.Observe(Snapshot{
			Interval:   interval,
			OpsIssued:  report.OpsIssued,
			Acked:      report.Acked,
			LostAcked:  report.LostAcked,
			Nodes:      len(cluster.Nodes()),
			ChargedRU:  charged.total,
			RefundedRU: refunded.total,
			BilledRU:   billed.total,
			Migrations: report.Migrations,
			Failovers:  report.Failovers,
		})
	}

	phases := [4]*metrics.Histogram{}
	for i := range phases {
		phases[i] = metrics.NewHistogram()
	}

	hours := cfg.Days * 24
	intervalDur := time.Hour / time.Duration(cfg.IntervalsPerHour)
	var history []float64 // billed RU per simulated hour
	var succeeded int64
	var downNode string
	report.PeakNodes = cfg.BaseNodes

	for h := 0; h < hours; h++ {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		hod := h % 24
		phase := phases[hod/6]

		// Injected fault: kill partition 0's current primary and fail
		// over before the next operation is issued. Collapsing the
		// down window keeps the acked stream deterministic (which node
		// is primary depends on earlier, timing-sensitive migrations);
		// the durability invariant — promotion after a mid-replication
		// kill loses nothing — is exercised in full.
		if failAt[h] && downNode == "" {
			view, err := cluster.Meta.RoutingView(tenantName)
			if err != nil {
				return report, err
			}
			victimID := view.Partitions[0].Primary
			victim, err := cluster.Meta.Node(victimID)
			if err != nil {
				return report, err
			}
			inj.Kill(victim)
			downNode = victimID
			inj.ReviveAt(sim.Now().Sub(simStart)+cfg.ReviveAfter, victim)
			cluster.Meta.MonitorNodeHealth()
			report.Failovers++
			if err := audit(); err != nil {
				return report, err
			}
		}

		ops := int(float64(cfg.OpsPerInterval) * diurnalFactor(cfg.DiurnalAmp, hod))
		if ops < 1 {
			ops = 1
		}
		for i := 0; i < cfg.IntervalsPerHour; i++ {
			if err := ctx.Err(); err != nil {
				return report, err
			}
			for j := 0; j < ops; j++ {
				key := users.Next()
				report.OpsIssued++
				start := wall.Now()
				if mix.NextIsRead() {
					_, err := client.Get(ctx, key)
					if err == nil || errors.Is(err, abase.ErrNotFound) {
						succeeded++
					}
				} else {
					v := value()
					if err := client.Set(ctx, key, []byte(v)); err == nil {
						model[string(key)] = v
						report.Acked++
						succeeded++
					}
				}
				phase.Observe(wall.Since(start))
			}
			sim.Advance(intervalDur)
			if inj.Tick() > 0 {
				// The scheduled revive fired: the node answers probes
				// again and the control plane demotes its stale roles.
				downNode = ""
				cluster.Meta.MonitorNodeHealth()
			}
		}

		// Hour boundary: settle the books, forecast the next hour, and
		// let the autoscaler and rescheduler act.
		collect()
		prevTotal := 0.0
		for _, v := range history {
			prevTotal += v
		}
		history = append(history, billed.total-prevTotal)

		pred := history[len(history)-1]
		if len(history) >= 6 {
			f := forecast.Predict(history, 1, forecast.Options{SamplesPerDay: 24})
			if len(f.Values) == 1 && f.Values[0] > 0 {
				pred = f.Values[0]
			}
		}
		desired := int(math.Ceil(pred / (cfg.ScalerNodeRU * cfg.Headroom)))
		if desired < cfg.Replicas {
			desired = cfg.Replicas
		}
		if desired > cfg.MaxNodes {
			desired = cfg.MaxNodes
		}
		before := len(cluster.Nodes())
		for len(cluster.Nodes()) < desired {
			if _, err := cluster.AddNode(); err != nil {
				return report, err
			}
		}
		// Scale-down waits until the injected victim is back: the
		// decommission rebuild should not race a deliberately dead
		// node.
		for downNode == "" && len(cluster.Nodes()) > desired {
			pool := cluster.Nodes()
			if err := cluster.RemoveNode(pool[len(pool)-1].ID()); err != nil {
				return report, err
			}
		}
		if after := len(cluster.Nodes()); after != before {
			report.ResizeEvents = append(report.ResizeEvents, ResizeEvent{Hour: h + 1, From: before, To: after})
		}
		if n := len(cluster.Nodes()); n > report.PeakNodes {
			report.PeakNodes = n
		}

		migs, err := cluster.Meta.RebalanceOnce(cfg.RebalanceTheta)
		if err != nil {
			return report, err
		}
		report.Migrations += len(migs)
		cluster.Meta.MonitorNodeHealth()
		snapshot(h)
	}

	// End of run: final audit and reconciliation.
	if err := audit(); err != nil {
		return report, err
	}
	collect()
	snapshot(hours)

	report.FinalNodes = len(cluster.Nodes())
	report.Resizes = checker.Resizes()
	report.ChargedRU = charged.total
	report.RefundedRU = refunded.total
	report.BilledRU = billed.total
	if report.OpsIssued > 0 {
		report.Availability = float64(succeeded) / float64(report.OpsIssued)
	}
	for i, ph := range phases {
		report.Phases = append(report.Phases, PhaseStats{
			Name: phaseNames[i],
			Ops:  int64(ph.Count()),
			P50:  ph.Quantile(0.5),
			P99:  ph.Quantile(0.99),
		})
	}

	report.Violations = checker.Finish()
	if len(report.Violations) > 0 {
		return report, fmt.Errorf("soak: %d invariant violation(s): %s",
			len(report.Violations), strings.Join(report.Violations, "; "))
	}
	return report, nil
}
