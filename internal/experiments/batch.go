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
	// than timed. Visits are the node requests (admission steps) per key,
	// and Admissions the proxy-quota admissions per key.
	LoopedTasks       float64
	BatchedTasks      float64
	LoopedVisits      float64
	BatchedVisits     float64
	LoopedAdmissions  float64
	BatchedAdmissions float64
}

// work is what the stack's planes have done so far, counted exactly.
type work struct {
	tasks, visits, admissions int64
}

// work sums the WFQ tasks the stack's nodes have completed, over all
// classes, the requests they admitted, and the quota admissions of
// fleet's proxies.
func (s *stack) work(fleet *proxy.Fleet) (w work) {
	for _, n := range s.nodes {
		for c := wfq.SmallRead; c <= wfq.LargeWrite; c++ {
			w.tasks += n.Scheduler().Queue(c).Stats().Completed
		}
		w.visits += n.Snapshot().Visits
	}
	w.admissions = fleet.QuotaAdmissions()
	return w
}

// perKey is the work done since w0, per key moved.
func (w work) perKey(w0 work, keys float64) (tasks, visits, admissions float64) {
	return float64(w.tasks-w0.tasks) / keys, float64(w.visits-w0.visits) / keys, float64(w.admissions-w0.admissions) / keys
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
		w0, start := s.work(fleet), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				for _, k := range keys[r*size : (r+1)*size] {
					fleet.Get(bg, k)
				}
			}
		}
		looped := moved / clk.Since(start).Seconds()
		pt := BatchPoint{BatchSize: size, LoopedOps: looped}
		pt.LoopedTasks, pt.LoopedVisits, pt.LoopedAdmissions = s.work(fleet).perKey(w0, moved)

		w0, start = s.work(fleet), clk.Now()
		for p := 0; p < passes; p++ {
			for r := 0; r < rounds; r++ {
				fleet.BatchGet(bg, keys[r*size:(r+1)*size])
			}
		}
		pt.BatchedOps = moved / clk.Since(start).Seconds()
		pt.BatchedTasks, pt.BatchedVisits, pt.BatchedAdmissions = s.work(fleet).perKey(w0, moved)
		pt.Speedup = pt.BatchedOps / looped
		points = append(points, pt)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", looped),
			fmt.Sprintf("%.0f", pt.BatchedOps),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return points, tbl
}
