package experiments

import (
	"fmt"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
)

// BatchOpts configures the batched-vs-looped comparison.
type BatchOpts struct {
	// Keys is the working-set size (default 512).
	Keys int
	// Sizes are the batch sizes to compare (default 4, 16, 64).
	Sizes []int
	// ValueBytes is the value size (default 128).
	ValueBytes int
}

// BatchPoint is one row of the comparison: per-key latency and
// throughput of the looped per-key path versus the batched path at one
// batch size.
type BatchPoint struct {
	BatchSize  int
	LoopedOps  float64 // keys/sec via per-key Fleet.Get/Put
	BatchedOps float64 // keys/sec via Fleet.BatchGet/BatchPut
	Speedup    float64
	// LoopedTasks and BatchedTasks are the WFQ tasks the DataNodes ran
	// per key on each path: what batching saves, counted exactly rather
	// than timed.
	LoopedTasks  float64
	BatchedTasks float64
}

// batchStack builds a minimal three-plane stack with no simulated cost,
// so the measurement isolates per-request orchestration overhead
// (admission, quota, WFQ round trips) — exactly what batching amortizes.
// It returns the stack's DataNodes too, whose WFQ task counts wfqTasks
// reads.
func batchStack() (*proxy.Fleet, []*datanode.Node, func()) {
	m := metaserver.New(metaserver.Config{Replicas: 3})
	var nodes []*datanode.Node
	for i := 0; i < 3; i++ {
		n := datanode.New(datanode.Config{ID: fmt.Sprintf("bn-%d", i)})
		m.RegisterNode(n)
		nodes = append(nodes, n)
	}
	if _, err := m.CreateTenant(metaserver.TenantSpec{
		Name: "bench", QuotaRU: 1e9, Partitions: 4, Proxies: 2,
	}); err != nil {
		panic(err)
	}
	fleet, err := proxy.NewFleet(proxy.Config{
		Tenant:      "bench",
		Meta:        m,
		EnableCache: false, // reads must reach the DataNodes both ways
		EnableQuota: true,
		ProxyQuota:  1e9,
	}, 2, 2, 1)
	if err != nil {
		panic(err)
	}
	cleanup := func() {
		m.Close()
		for _, n := range nodes {
			n.Close()
		}
	}
	return fleet, nodes, cleanup
}

// wfqTasks sums the WFQ tasks nodes have completed, over all classes.
func wfqTasks(nodes []*datanode.Node) (total int64) {
	for _, n := range nodes {
		for c := wfq.SmallRead; c <= wfq.LargeWrite; c++ {
			total += n.Scheduler().Queue(c).Stats().Completed
		}
	}
	return total
}

// BatchComparison measures multi-key reads and writes through the
// proxy plane, looped (one admission + one DataNode round trip per
// key) versus batched (one admission + one fan-out per sub-batch).
func BatchComparison(opts BatchOpts) ([]BatchPoint, Table) {
	if opts.Keys <= 0 {
		opts.Keys = 512
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{4, 16, 64}
	}
	if opts.ValueBytes <= 0 {
		opts.ValueBytes = 128
	}
	fleet, nodes, cleanup := batchStack()
	defer cleanup()

	keys := make([][]byte, opts.Keys)
	kvs := make([]proxy.KV, opts.Keys)
	value := make([]byte, opts.ValueBytes)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
		kvs[i] = proxy.KV{Key: keys[i], Value: value}
	}
	fleet.BatchPut(bg, kvs) // pre-populate

	var points []BatchPoint
	tbl := Table{
		Title:  "Batched vs looped multi-key reads (proxy plane)",
		Header: []string{"batch", "looped keys/s", "batched keys/s", "speedup"},
		Notes: []string{
			"looped: one quota admission + one DataNode round trip per key",
			"batched: one admission + one bounded fan-out per sub-batch",
		},
	}
	// Warm both paths (scheduler workers, caches, estimators) before
	// timing anything.
	for _, k := range keys {
		fleet.Get(bg, k)
	}
	fleet.BatchGet(bg, keys)

	const passes = 4
	for _, size := range opts.Sizes {
		rounds := opts.Keys / size
		moved := float64(passes * rounds * size)
		tasks, start := wfqTasks(nodes), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				for _, k := range keys[r*size : (r+1)*size] {
					fleet.Get(bg, k)
				}
			}
		}
		looped := moved / clk.Since(start).Seconds()
		loopedTasks := float64(wfqTasks(nodes)-tasks) / moved

		tasks, start = wfqTasks(nodes), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				fleet.BatchGet(bg, keys[r*size:(r+1)*size])
			}
		}
		batched := moved / clk.Since(start).Seconds()
		batchedTasks := float64(wfqTasks(nodes)-tasks) / moved

		pt := BatchPoint{
			BatchSize: size, LoopedOps: looped, BatchedOps: batched, Speedup: batched / looped,
			LoopedTasks: loopedTasks, BatchedTasks: batchedTasks,
		}
		points = append(points, pt)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", looped),
			fmt.Sprintf("%.0f", batched),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return points, tbl
}
