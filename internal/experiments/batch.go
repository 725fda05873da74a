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

// wfqTasks sums the WFQ tasks the stack's nodes have completed, over
// all classes.
func (s *stack) wfqTasks() (total int64) {
	for _, n := range s.nodes {
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
	// No simulated cost and no proxy cache: reads reach the DataNodes
	// both ways, and the measurement isolates per-request orchestration
	// (admission, quota, WFQ round trips) — what batching amortizes.
	s := newStack(metaserver.Config{}, 3, datanode.Config{}, "bench", 4)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 2, 2, 1)

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
		tasks, start := s.wfqTasks(), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				for _, k := range keys[r*size : (r+1)*size] {
					fleet.Get(bg, k)
				}
			}
		}
		looped := moved / clk.Since(start).Seconds()
		loopedTasks := float64(s.wfqTasks()-tasks) / moved

		tasks, start = s.wfqTasks(), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				fleet.BatchGet(bg, keys[r*size:(r+1)*size])
			}
		}
		batched := moved / clk.Since(start).Seconds()
		batchedTasks := float64(s.wfqTasks()-tasks) / moved

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
