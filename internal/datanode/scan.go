package datanode

import (
	"context"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// ScanOptions bounds one partition range-scan sub-request.
type ScanOptions struct {
	// Start is the inclusive resume key; nil scans from the partition's
	// first key.
	Start []byte
	// Limit caps the entries returned (default lavastore.DefaultScanLimit).
	Limit int
	// KeysOnly strips values from the reply (KEYS/DBSIZE traffic). The
	// engine still reads the records, so admission and billing are
	// unchanged; only the transferred payload shrinks.
	KeysOnly bool
}

// ScanResult reports one completed partition sub-scan.
type ScanResult struct {
	// Entries holds the live pairs found, in ascending key order
	// (values nil under KeysOnly).
	Entries []lavastore.ScanEntry
	// NextKey is the inclusive resume key for the next sub-scan of this
	// partition, or nil when the partition is exhausted.
	NextKey []byte
	// Examined counts merged records the engine visited, including
	// skipped tombstones and expired records.
	Examined int
	// RU is the charge billed for the page.
	RU      float64
	Latency time.Duration
}

// scanOp reads one bounded page of a partition in ascending key order.
type scanOp struct {
	unit
	opts  ScanOptions
	page  lavastore.ScanPage
	ioErr error // engine failure from the I/O stage
}

// Scans heat the partition (IO-equivalent units per page) but mark no
// individual key hot: a range traversal says nothing about per-key
// popularity.
func (s *scanOp) arrive(now time.Time) { s.rep.heat.Add(s.iops, now) }

// Scans bypass the SA-LRU (a range traversal would only churn it), so
// the CPU stage always proceeds to the I/O layer.
func (s *scanOp) cpu() bool { return true }

func (s *scanOp) io() {
	// KeysOnly copies no value bytes, billing unchanged (the engine read
	// the records either way).
	s.page, s.ioErr = s.rep.db.ScanRange(s.opts.Start, s.opts.Limit, s.opts.KeysOnly)
	// Sequential reads amortize across the sparse-index granularity:
	// one simulated disk read covers a block of examined records.
	reads := 1 + s.page.Examined/scanEntriesPerIO
	burn(s.n.cfg.Clock, time.Duration(reads)*s.n.cfg.Cost.IOReadTime)
}

func (s *scanOp) settle() {
	if s.ioErr != nil {
		s.fail(s.ioErr)
		return
	}
	s.ts.reqs.Cell().Success.Inc()
	s.bill(ru.ScanRU(int(s.page.Bytes), s.page.Examined))
}

// RangeScan reads one bounded page of the hosted replica of pid,
// flowing through the full isolation pipeline exactly like a point
// read: one request-queue admission, a partition quota charge at the
// scan estimate, and a large-read WFQ task whose I/O stage burns time
// proportional to the records examined.
func (n *Node) RangeScan(ctx context.Context, pid partition.ID, opts ScanOptions) (ScanResult, error) {
	if opts.Limit <= 0 {
		opts.Limit = lavastore.DefaultScanLimit
	}
	s := &scanOp{opts: opts}
	if err := n.place(&s.unit, s, pid, false, 0); err != nil {
		return ScanResult{}, err
	}
	s.class, s.cost = wfq.LargeRead, s.est.EstimateScanRU(opts.Limit)
	s.iops = 1 + float64(opts.Limit)/scanEntriesPerIO
	n.run(ctx, []*unit{&s.unit})
	return ScanResult{
		Entries:  s.page.Entries,
		NextKey:  s.page.NextKey,
		Examined: s.page.Examined,
		RU:       s.billed,
		Latency:  s.lat,
	}, s.err
}

// scanEntriesPerIO is how many sequential records one simulated disk
// read covers during a range scan (the SSTable sparse-index interval).
const scanEntriesPerIO = 16
