package experiments

import (
	"fmt"
	"time"

	"abase/internal/datanode"
	"abase/internal/faultinject"
	"abase/internal/metaserver"
	"abase/internal/partition"
	"abase/internal/proxy"
	"abase/internal/wfq"
	"abase/internal/workload"
)

// FailoverOpts scales the failover-availability experiment.
type FailoverOpts struct {
	// Keys is the keyspace size (default 2000).
	Keys int
	// Ops is the write count (default 6000).
	Ops int
	// KillAfter is the write index at which the victim primary is
	// killed (default Ops/3).
	KillAfter int
	// ValueBytes is the stored value size (default 128).
	ValueBytes int
	// Skew is the Zipf exponent of the write stream (default 1.1).
	Skew float64
	// MonitorEvery is how many writes pass between control-plane
	// monitoring cycles — the backstop detector when suspect reports
	// alone have not crossed the probe threshold (default 64).
	MonitorEvery int
}

func (o FailoverOpts) withDefaults() FailoverOpts {
	if o.Keys <= 0 {
		o.Keys = 2000
	}
	if o.Ops <= 0 {
		o.Ops = 6000
	}
	if o.KillAfter <= 0 {
		o.KillAfter = o.Ops / 3
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 128
	}
	if o.Skew <= 0 {
		o.Skew = 1.1
	}
	if o.MonitorEvery <= 0 {
		o.MonitorEvery = 64
	}
	return o
}

// FailoverResult is the failover-availability outcome.
type FailoverResult struct {
	// Victim is the killed node (a primary for at least one partition).
	Victim string
	// AffectedPartitions is how many partitions the victim led.
	AffectedPartitions int
	// PromotedPartitions is how many of those ended up with a new
	// primary (want: all of them).
	PromotedPartitions int
	// UnavailableWindow is the time from the kill to the first
	// successful write on an affected partition.
	UnavailableWindow time.Duration
	// UnavailableWrites counts writes that failed during the window.
	UnavailableWrites int
	// AckedWrites counts writes acknowledged across the whole run.
	AckedWrites int
	// LostAckedWrites counts acknowledged writes that were unreadable
	// or stale after the dust settled (want: zero).
	LostAckedWrites int
	// FollowerReadsServed counts ReadFollower reads on affected
	// partitions that succeeded DURING the outage window (want: > 0 —
	// follower reads keep serving while writes are blocked).
	FollowerReadsServed int
	// FollowerReadsFailed counts the ones that did not.
	FollowerReadsFailed int
}

// FailoverAvailability kills a partition primary in the middle of a
// Zipf write workload and measures what the failover subsystem
// delivers: how long writes to the affected partitions stay
// unavailable (detection is suspect-report-driven, with periodic
// monitor cycles as the backstop), whether every acknowledged write
// survives the promotion (the replication queue is drained before a
// follower is promoted, so the answer must be yes), and whether
// opt-in follower reads keep serving the affected keys throughout the
// outage.
func FailoverAvailability(opts FailoverOpts) (FailoverResult, Table) {
	opts = opts.withDefaults()
	const tenant = "failover"

	s := newStack(metaserver.Config{DownAfterProbes: 2}, 4,
		datanode.Config{WFQ: wfq.Config{CPUWorkers: 2, BasicIOThreads: 2}}, tenant, 4)
	defer s.close()
	m := s.meta
	fleet := s.fleet(proxy.Config{}, 1, 1, 42)

	// Baseline: write the whole keyspace through the proxy plane, then
	// drain replication so followers hold everything.
	val := make([]byte, opts.ValueBytes)
	model := make(map[string]string, opts.Keys)
	for k := 0; k < opts.Keys; k++ {
		key := fmt.Sprintf("key-%012d", k)
		if err := fleet.Put(bg, []byte(key), val, 0); err != nil {
			panic(err)
		}
		model[key] = string(val)
	}
	m.FlushReplication()

	// The victim is partition 0's primary; note every partition it led.
	view, err := m.RoutingView(tenant)
	if err != nil {
		panic(err)
	}
	nparts := len(view.Partitions)
	victimID := view.Partitions[0].Primary
	victim, err := m.Node(victimID)
	if err != nil {
		panic(err)
	}
	affected := map[int]bool{}
	for _, r := range view.Partitions {
		if r.Primary == victimID {
			affected[r.Partition.Index] = true
		}
	}
	// One affected preloaded key to probe follower reads with.
	probeKey := ""
	for k := 0; k < opts.Keys; k++ {
		key := fmt.Sprintf("key-%012d", k)
		if affected[partition.PartitionOf([]byte(key), nparts)] {
			probeKey = key
			break
		}
	}

	res := FailoverResult{Victim: victimID, AffectedPartitions: len(affected)}
	inj := faultinject.New(nil)
	gen := workload.NewZipfKeys(opts.Keys, opts.Skew, 99)
	acked := 0
	killed, recovered := false, false
	var killTime time.Time
	for i := 0; i < opts.Ops; i++ {
		if i == opts.KillAfter {
			inj.Kill(victim)
			killed, killTime = true, clk.Now()
		}
		key := gen.Next()
		value := []byte(fmt.Sprintf("val-%08d", i))
		onAffected := affected[partition.PartitionOf(key, nparts)]
		if err := fleet.Put(bg, key, value, 0); err == nil {
			acked++
			model[string(key)] = string(value)
			if killed && !recovered && onAffected {
				recovered = true
				res.UnavailableWindow = clk.Since(killTime)
			}
		} else {
			res.UnavailableWrites++
		}
		// While the outage is open, follower reads on an affected key
		// must keep answering even though its primary is gone.
		if killed && !recovered && probeKey != "" {
			if _, err := fleet.GetPref(bg, []byte(probeKey), proxy.ReadFollower); err == nil {
				res.FollowerReadsServed++
			} else {
				res.FollowerReadsFailed++
			}
		}
		if i%opts.MonitorEvery == 0 {
			m.MonitorNodeHealth()
		}
	}
	res.AckedWrites = acked

	// Settle, then audit: every acknowledged write must read back
	// exactly (primary reads — the strongest check).
	m.FlushReplication()
	m.MonitorNodeHealth()
	for key, want := range model {
		got, err := fleet.Get(bg, []byte(key))
		if err != nil || string(got) != want {
			res.LostAckedWrites++
		}
	}
	after, err := m.RoutingView(tenant)
	if err == nil {
		for _, r := range after.Partitions {
			if r.Partition.Index < nparts && affected[r.Partition.Index] && r.Primary != victimID {
				res.PromotedPartitions++
			}
		}
	}

	tbl := Table{
		Title:  "Failover availability: primary killed mid-workload",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"victim node", res.Victim},
			{"affected partitions", fmt.Sprintf("%d", res.AffectedPartitions)},
			{"promoted partitions", fmt.Sprintf("%d", res.PromotedPartitions)},
			{"unavailability window", res.UnavailableWindow.String()},
			{"writes failed in window", fmt.Sprintf("%d", res.UnavailableWrites)},
			{"acknowledged writes", fmt.Sprintf("%d", res.AckedWrites)},
			{"acknowledged writes lost", fmt.Sprintf("%d", res.LostAckedWrites)},
			{"follower reads served in window", fmt.Sprintf("%d", res.FollowerReadsServed)},
			{"follower reads failed in window", fmt.Sprintf("%d", res.FollowerReadsFailed)},
		},
		Notes: []string{
			fmt.Sprintf("%d writes over %d keys (zipf s=%.1f), primary killed at write %d",
				opts.Ops, opts.Keys, opts.Skew, opts.KillAfter),
			"detection: proxy suspect reports + monitor probes (DownAfterProbes=2); promotion drains the replication queue, then the freshest follower wins",
			"zero lost acknowledged writes is the invariant, not a tuning outcome: acks happen only after the write is queued for every follower",
		},
	}
	return res, tbl
}
