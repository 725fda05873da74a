package experiments

import (
	"fmt"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/metrics"
	"abase/internal/proxy"
)

// PointOpts configures the single-key read/write latency experiment.
type PointOpts struct {
	// Keys is the working-set size (default 512).
	Keys int
	// Ops is the measured operations per path (default 4096).
	Ops int
	// ValueBytes is the value size (default 128).
	ValueBytes int
}

// PointStats is one path's outcome (reads or writes).
type PointStats struct {
	Path      string // "get" or "set"
	Ops       int
	OpsPerSec float64
	P50       time.Duration
	P99       time.Duration
}

// PointLatency measures single-key Get and Put latency through the
// proxy plane — the baseline trajectory point every other experiment
// is implicitly compared against. Batch, scan, and hotspot runs all
// answer "how much better than one key at a time?"; this experiment
// pins what "one key at a time" costs, so a regression in the shared
// per-request path (admission, quota, WFQ, routing) is visible even
// when the amortized paths hide it.
func PointLatency(opts PointOpts) ([]PointStats, Table) {
	if opts.Keys <= 0 {
		opts.Keys = 512
	}
	if opts.Ops <= 0 {
		opts.Ops = 4096
	}
	if opts.ValueBytes <= 0 {
		opts.ValueBytes = 128
	}
	s := newStack(metaserver.Config{}, 3, datanode.Config{}, "bench", 4)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 2, 2, 1)

	keys := make([][]byte, opts.Keys)
	value := make([]byte, opts.ValueBytes)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%05d", i))
	}
	// Warm the stack (scheduler workers, caches, estimators) before
	// timing anything, same as the batch comparison.
	for _, k := range keys {
		fleet.Put(bg, k, value, 0)
		fleet.Get(bg, k)
	}

	measure := func(path string, op func(i int) error) PointStats {
		h := metrics.NewHistogram()
		start := clk.Now()
		for i := 0; i < opts.Ops; i++ {
			t0 := clk.Now()
			if err := op(i); err != nil {
				panic(fmt.Sprintf("point %s: %v", path, err))
			}
			h.Observe(clk.Since(t0))
		}
		elapsed := clk.Since(start).Seconds()
		return PointStats{
			Path:      path,
			Ops:       opts.Ops,
			OpsPerSec: float64(opts.Ops) / elapsed,
			P50:       h.Quantile(0.50),
			P99:       h.Quantile(0.99),
		}
	}

	stats := []PointStats{
		measure("get", func(i int) error {
			_, err := fleet.Get(bg, keys[i%opts.Keys])
			return err
		}),
		measure("set", func(i int) error {
			return fleet.Put(bg, keys[i%opts.Keys], value, 0)
		}),
	}

	tbl := Table{
		Title:  "Single-key point operations (proxy plane)",
		Header: []string{"path", "ops/s", "p50", "p99"},
		Notes: []string{
			"the per-request baseline the batched paths amortize",
		},
	}
	for _, st := range stats {
		tbl.Rows = append(tbl.Rows, []string{
			st.Path,
			fmt.Sprintf("%.0f", st.OpsPerSec),
			st.P50.String(),
			st.P99.String(),
		})
	}
	return stats, tbl
}
