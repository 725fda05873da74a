package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
)

// SheddingOpts configures the deadline-shedding goodput experiment.
type SheddingOpts struct {
	// Workers is the closed-loop client count (default 16). Each worker
	// alternates a tight-deadline request with a loose-deadline one.
	Workers int
	// TightDeadline is the per-request deadline of the doomed half of
	// the workload (default 1.5ms — below the queue wait the worker
	// count induces).
	TightDeadline time.Duration
	// LooseDeadline is the deadline of the servable half (default
	// 500ms — comfortably above the queue wait).
	LooseDeadline time.Duration
	// Duration is the measured window per configuration (default
	// 400ms), after a short warmup that settles the node's service-time
	// estimate.
	Duration time.Duration
	// ValueBytes is the written value size (default 512).
	ValueBytes int
}

func (o SheddingOpts) withDefaults() SheddingOpts {
	if o.Workers <= 0 {
		o.Workers = 12
	}
	if o.TightDeadline <= 0 {
		o.TightDeadline = time.Millisecond
	}
	if o.LooseDeadline <= 0 {
		o.LooseDeadline = 500 * time.Millisecond
	}
	if o.Duration <= 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 512
	}
	return o
}

// SheddingStats summarizes one configuration of the workload.
type SheddingStats struct {
	// Offered is the total requests issued.
	Offered int64
	// InDeadline is the requests that completed successfully within
	// their own deadline — the goodput numerator.
	InDeadline int64
	// Late is the requests that completed successfully after their
	// deadline: work the node performed for nothing.
	Late int64
	// Shed is the requests refused up front by deadline-aware
	// admission.
	Shed int64
	// Expired is the requests whose deadline fired while they were
	// queued (aborted at a dequeue point without executing).
	Expired int64
	// Goodput is InDeadline per second of measured wall time.
	Goodput float64
	// TightLatency is the mean time a tight-deadline attempt held its
	// caller before resolving (success or failure): the tax doomed
	// requests charge the caller when they are queued instead of shed.
	TightLatency time.Duration
}

// SheddingResult pairs the two configurations.
type SheddingResult struct {
	On  SheddingStats // the node sees each deadline and sheds doomed requests
	Off SheddingStats // deadlines hidden from the node: doomed requests queue anyway
}

// hiddenDeadline is a context that ends at its parent's deadline but
// reports none: deadline-aware admission is the one reader of a
// request's deadline, so a node handed one cannot shed it.
type hiddenDeadline struct{ context.Context }

func (hiddenDeadline) Deadline() (time.Time, bool) { return time.Time{}, false }

// runShedding drives the mixed-deadline closed loop for one
// configuration and collects its stats; hide sends every request's
// deadline as a hiddenDeadline.
func runShedding(fleet *proxy.Fleet, opts SheddingOpts, value []byte, seq *atomic.Int64, hide bool) SheddingStats {
	// The workers count straight into st; it is read once they stop.
	var st SheddingStats
	var tightHeld atomic.Int64 // summed ns tight attempts held their caller
	var tightN atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tight := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				deadline := opts.LooseDeadline
				if tight {
					deadline = opts.TightDeadline
				}
				key := []byte(fmt.Sprintf("k%08d", seq.Add(1)))
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				if hide {
					ctx = hiddenDeadline{ctx}
				}
				start := clk.Now()
				err := fleet.Put(ctx, key, value, 0)
				lat := clk.Since(start)
				cancel()
				atomic.AddInt64(&st.Offered, 1)
				if tight {
					tightHeld.Add(int64(lat))
					tightN.Add(1)
				}
				switch {
				case err == nil && lat <= deadline:
					atomic.AddInt64(&st.InDeadline, 1)
				case err == nil:
					atomic.AddInt64(&st.Late, 1)
				case errors.Is(err, datanode.ErrDeadlineShed):
					atomic.AddInt64(&st.Shed, 1)
				case errors.Is(err, context.DeadlineExceeded):
					atomic.AddInt64(&st.Expired, 1)
				}
				tight = !tight
			}
		}()
	}
	clk.Sleep(opts.Duration)
	close(stop)
	wg.Wait()
	st.Goodput = float64(st.InDeadline) / opts.Duration.Seconds()
	if n := tightN.Load(); n > 0 {
		st.TightLatency = time.Duration(tightHeld.Load() / n)
	}
	return st
}

// DeadlineShedding measures goodput under overload with deadline-aware
// admission shedding on versus off. The workload alternates doomed
// tight-deadline requests with servable loose-deadline ones from each
// closed-loop worker. With shedding off (each request's deadline hidden
// from the node, which then has no budget to compare), every tight
// request queues, holds its caller for the full queue wait, and dies at
// a dequeue point — so the servable half is issued (and completed) at
// half the possible rate. With shedding on, the node compares the request's
// remaining budget against its estimated wait and refuses doomed work
// in microseconds, so callers spend their concurrency on requests that
// can still make their deadlines.
func DeadlineShedding(opts SheddingOpts) (SheddingResult, Table) {
	opts = opts.withDefaults()
	// One DataNode behind a proxy, with ample I/O threads: the
	// simulated 2ms write service — above the tight deadline — is the
	// only limit, so a doomed request's cost is exactly the service time
	// it steals from its caller's concurrency budget. That isolates what
	// shedding changes, independent of the host's sleep granularity
	// (everything scales with the real service time).
	s := newStack(metaserver.Config{Replicas: 1}, 1, datanode.Config{
		Cost: datanode.CostModel{IOWriteTime: 2 * time.Millisecond},
		WFQ: wfq.Config{
			CPUWorkers: 8,
			// No I/O queueing: every in-flight request gets a thread, so
			// a doomed request completes (late) instead of dying cheaply
			// in a queue — the waste shedding exists to prevent.
			BasicIOThreads: 3 * opts.Workers,
		},
		Replicas: 1,
	}, "shed", 1)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 1, 1, 1)

	value := make([]byte, opts.ValueBytes)
	var seq atomic.Int64
	warm := opts
	warm.Duration = opts.Duration / 4

	var res SheddingResult
	// Shedding off first: it leaves no estimator state the on-run
	// depends on (the EWMA keeps updating either way).
	runShedding(fleet, warm, value, &seq, true) // warm the queue + estimator
	res.Off = runShedding(fleet, opts, value, &seq, true)

	runShedding(fleet, warm, value, &seq, false)
	res.On = runShedding(fleet, opts, value, &seq, false)

	row := func(name string, s SheddingStats) []string {
		return []string{
			name,
			fmt.Sprintf("%d", s.Offered),
			fmt.Sprintf("%.0f", s.Goodput),
			fmt.Sprintf("%d", s.Shed),
			fmt.Sprintf("%d", s.Expired),
			fmt.Sprintf("%d", s.Late),
			fmt.Sprintf("%.2fms", float64(s.TightLatency.Microseconds())/1000),
		}
	}
	tbl := Table{
		Title:  "Deadline-aware admission shedding under overload",
		Header: []string{"shedding", "offered", "goodput/s", "shed", "expired", "late", "tight lat"},
		Rows: [][]string{
			row("off", res.Off),
			row("on", res.On),
		},
		Notes: []string{
			"goodput: requests completed within their own deadline, per second",
			"workload: closed loop alternating doomed tight deadlines with servable loose ones",
			fmt.Sprintf("goodput improvement: %.2fx", res.On.Goodput/res.Off.Goodput),
		},
	}
	return res, tbl
}
