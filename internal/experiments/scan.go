package experiments

import (
	"fmt"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
)

// ScanOpts configures the distributed-scan throughput experiment.
type ScanOpts struct {
	// Keys is the populated keyspace size (default 2048).
	Keys int
	// ValueBytes is the value size (default 128).
	ValueBytes int
	// PageSizes are the SCAN COUNT values to compare (default 16, 64,
	// 256).
	PageSizes []int
}

// ScanPoint is one row of the scan experiment: a full keyspace
// traversal at one page size.
type ScanPoint struct {
	PageSize   int
	Pages      int     // cursor pages one traversal took
	KeysPerSec float64 // traversal throughput
}

// ScanThroughput measures full cursor traversals of a populated
// keyspace through the proxy plane at several page sizes. Larger pages
// amortize per-page admission and fan-out over more keys — the same
// shape the batched-vs-looped comparison shows for point reads.
func ScanThroughput(opts ScanOpts) ([]ScanPoint, Table) {
	if opts.Keys <= 0 {
		opts.Keys = 2048
	}
	if opts.ValueBytes <= 0 {
		opts.ValueBytes = 128
	}
	if len(opts.PageSizes) == 0 {
		opts.PageSizes = []int{16, 64, 256}
	}
	s := newStack(metaserver.Config{}, 3, datanode.Config{}, "bench", 4)
	defer s.close()
	fleet := s.fleet(proxy.Config{}, 2, 2, 1)

	value := make([]byte, opts.ValueBytes)
	kvs := make([]proxy.KV, opts.Keys)
	for i := range kvs {
		kvs[i] = proxy.KV{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: value}
	}
	fleet.BatchPut(bg, kvs)

	traverse := func(pageSize int) (keys, pages int) {
		cursor := ""
		for {
			page, err := fleet.Scan(bg, cursor, proxy.ScanOptions{Count: pageSize})
			if err != nil {
				panic(err)
			}
			pages++
			keys += len(page.Keys)
			if page.Cursor == "" {
				return keys, pages
			}
			cursor = page.Cursor
		}
	}
	traverse(opts.PageSizes[0]) // warm schedulers and estimators

	var points []ScanPoint
	tbl := Table{
		Title:  "Distributed SCAN throughput (proxy plane)",
		Header: []string{"page size", "pages/traversal", "keys/s"},
		Notes: []string{
			fmt.Sprintf("%d keys, %d B values; full cursor traversals", opts.Keys, opts.ValueBytes),
			"each page: one proxy admission + one quota-admitted sub-scan per partition touched",
		},
	}
	const passes = 3
	for _, size := range opts.PageSizes {
		var keys, pages int
		start := clk.Now()
		for p := 0; p < passes; p++ {
			k, pg := traverse(size)
			keys += k
			pages += pg
		}
		elapsed := clk.Since(start).Seconds()
		pt := ScanPoint{
			PageSize:   size,
			Pages:      pages / passes,
			KeysPerSec: float64(keys) / elapsed,
		}
		points = append(points, pt)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%d", pt.Pages),
			fmt.Sprintf("%.0f", pt.KeysPerSec),
		})
	}
	return points, tbl
}
