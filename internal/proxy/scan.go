package proxy

// This file implements the proxy half of the distributed cursor-based
// SCAN. A tenant's keyspace is hash-partitioned, so a full traversal
// visits partitions in index order, draining each one in ascending key
// order through bounded, quota-admitted DataNode sub-scans. The cursor
// is an opaque string encoding (partition index, inclusive resume key);
// it survives routing changes because every page re-resolves the
// partition's current primary, and it survives partition splits because
// a doubling split only ever rehashes keys to a strictly higher
// partition index — completed partitions stay completed, and the
// current one restarts from its resume key.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"abase/internal/datanode"
	"abase/internal/glob"
	"abase/internal/partition"
)

// ErrBadCursor is returned when a scan cursor cannot be decoded. The
// caller should restart the traversal from the empty cursor.
var ErrBadCursor = errors.New("proxy: malformed scan cursor")

// DefaultScanCount is the per-page entry budget when ScanOptions.Count
// is not positive (matching Redis's SCAN COUNT default).
const DefaultScanCount = 10

// scanExamineFactor bounds one page's total examined records as a
// multiple of its count, mirroring lavastore's per-sub-scan cap.
const scanExamineFactor = 32

// MaxScanCount caps one page's count. Beyond protecting the examine
// budget arithmetic from overflow on absurd client-supplied COUNTs, a
// page bigger than this serves no purpose — the traversal is resumable
// by design.
const MaxScanCount = 1 << 20

// ScanOptions configures one cursor page.
type ScanOptions struct {
	// Match is an optional Redis-style glob applied to returned keys.
	// Filtering happens after the page is fetched, so a page may carry
	// fewer (even zero) keys while the cursor still advances.
	Match string
	// Count is the page's pre-filter entry budget (default
	// DefaultScanCount).
	Count int
	// KeysOnly omits values from the reply (KEYS/DBSIZE traffic).
	KeysOnly bool
}

// ScanPage is one page of a distributed scan.
type ScanPage struct {
	// Keys are the matching keys found, in partition-then-key order.
	Keys [][]byte
	// Values is parallel to Keys (entries nil under KeysOnly).
	Values [][]byte
	// Cursor resumes the traversal; "" means the scan is complete.
	Cursor string
	// Throttled reports that the page ended early because a sub-scan
	// was throttled: the cursor resumes at the unfinished spot, and a
	// polite caller backs off before fetching the next page instead of
	// hammering the quota (Client.Keys/DBSize do).
	Throttled bool
}

// scanCursor is the decoded resume position.
type scanCursor struct {
	part   int    // partition index currently being scanned
	resume []byte // inclusive resume key within part; nil = partition start
}

func encodeCursor(c scanCursor) string {
	return "p" + strconv.Itoa(c.part) + ":" + hex.EncodeToString(c.resume)
}

func decodeCursor(s string) (scanCursor, error) {
	if s == "" {
		return scanCursor{}, nil
	}
	rest, ok := strings.CutPrefix(s, "p")
	if !ok {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	idxStr, resumeHex, ok := strings.Cut(rest, ":")
	if !ok {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	resume, err := hex.DecodeString(resumeHex)
	if err != nil {
		return scanCursor{}, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	if len(resume) == 0 {
		resume = nil
	}
	return scanCursor{part: idx, resume: resume}, nil
}

// Scan fetches one cursor page. The whole page is admitted through the
// proxy quota once at the scan estimate; each partition sub-scan is
// then admitted by its own partition quota on the DataNode. When a
// sub-scan fails mid-page (throttled, routing change, node error)
// after some entries were already gathered, Scan returns the partial
// page with a cursor positioned at the unfinished spot and a nil
// error — the caller simply continues later. The same failure on an
// empty page surfaces as the error.
//
// A full traversal returns every key that exists for its whole
// duration at least once; keys written or deleted mid-traversal may or
// may not appear, and a key can appear more than once if a partition
// split rehashes it forward — Redis SCAN's guarantee, for the same
// reasons.
func (p *Proxy) Scan(ctx context.Context, cursor string, opts ScanOptions) (ScanPage, error) {
	if err := ctx.Err(); err != nil {
		return ScanPage{Cursor: cursor}, err
	}
	start := p.cfg.Clock.Now()
	cur, err := decodeCursor(cursor)
	if err != nil {
		p.reqs.Cell().Errors.Inc()
		return ScanPage{}, err
	}
	count := opts.Count
	if count <= 0 {
		count = DefaultScanCount
	}
	if count > MaxScanCount {
		count = MaxScanCount
	}
	estimate := p.est.EstimateScanRU(count)
	if !p.limiter.Allow(estimate, start) {
		p.reqs.Cell().Refused.Inc()
		return ScanPage{}, ErrThrottled
	}

	var page ScanPage
	fetched := 0
	// examined mirrors the engine's per-page examine cap at the page
	// level: a desert of tombstones or expired records yields sub-scans
	// that return nothing but a resume key, and without a budget this
	// loop would chain them until it found count live entries —
	// unbounded work under the single proxy admission above. When the
	// budget runs out the partial page returns with a usable cursor and
	// the caller pays for the next stretch separately.
	examined := 0
	for fetched < count && examined < count*scanExamineFactor {
		// Re-read the cached table every iteration: a split mid-scan
		// appends partitions (and invalidates the cache), which this
		// walk then covers.
		parts, err := p.NumPartitions()
		if err != nil {
			return p.refundFinishScan(page, cur, fetched, estimate, err, start)
		}
		if cur.part >= parts {
			// Traversal complete.
			c := p.reqs.Cell()
			c.Success.Inc()
			c.Latency.Observe(p.cfg.Clock.Since(start))
			return page, nil
		}
		// Each sub-scan is a routed call like any other: one route
		// refresh and retry on a routing-shaped error (dead primary,
		// moved partition), and a deadline that expires mid-page stops
		// the partition walk — the gathered entries return with a
		// resumable cursor AND the context sentinel, so the caller both
		// keeps the paid-for work and learns its budget ran out.
		var res datanode.ScanResult
		err = p.partRoute(ctx, cur.part, func(node *datanode.Node, route partition.Route) error {
			var err error
			res, err = node.RangeScan(ctx, route.Partition, datanode.ScanOptions{
				Start:    cur.resume,
				Limit:    count - fetched,
				KeysOnly: opts.KeysOnly,
			})
			return err
		})
		if err != nil {
			return p.refundFinishScan(page, cur, fetched, estimate, err, start)
		}
		p.reqs.Cell().RU.Add(res.RU)
		// Even an empty sub-scan (exhausted or vacant partition) costs a
		// DataNode round trip; charge at least one unit of budget so a
		// heavily-split sparse tenant cannot make one page fan out to
		// every partition.
		if res.Examined > 0 {
			examined += res.Examined
		} else {
			examined++
		}
		for _, e := range res.Entries {
			fetched++
			if opts.Match != "" && !glob.Match(opts.Match, string(e.Key)) {
				continue
			}
			page.Keys = append(page.Keys, e.Key)
			page.Values = append(page.Values, e.Value)
		}
		if res.NextKey != nil {
			cur.resume = res.NextKey
		} else {
			cur.part++
			cur.resume = nil
		}
	}
	page.Cursor = encodeCursor(cur)
	c := p.reqs.Cell()
	c.Success.Inc()
	c.Latency.Observe(p.cfg.Clock.Since(start))
	return page, nil
}

// refundFinishScan resolves a mid-page failure. Partial progress returns the
// page with a resumable cursor: the work is already paid for, so the
// error is swallowed and the caller continues later — except a context
// abort, which is surfaced too so the caller knows why the page is
// short. An empty page propagates the error and settles the page
// admission like any other failed request: refunded when the failure
// proves no sub-scan ever executed, so the tenant does not pay for a
// page the system never served.
func (p *Proxy) refundFinishScan(page ScanPage, cur scanCursor, fetched int, estimate float64, err error, start time.Time) (ScanPage, error) {
	p.reqs.Cell().Latency.Observe(p.cfg.Clock.Since(start))
	aborted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	throttled := errors.Is(err, datanode.ErrThrottled)
	switch {
	case fetched > 0 && aborted:
		page.Cursor = encodeCursor(cur)
		p.noteFailure(err)
		return page, err
	case fetched > 0:
		page.Cursor = encodeCursor(cur)
		page.Throttled = throttled
		p.reqs.Cell().Success.Inc()
		return page, nil
	case throttled:
		// The DataNode's partition quota refused the first sub-scan: the
		// page charge stands as the throttling signal.
		p.reqs.Cell().Refused.Inc()
		return ScanPage{}, ErrThrottled
	case aborted:
		// The cursor stays at the unfinished spot.
		page.Cursor = encodeCursor(cur)
	}
	return page, p.refundFailure(estimate, err)
}

// Scan routes one cursor page to a random proxy: scans carry no key
// affinity, so hot-key group routing does not apply and any member can
// serve the page.
func (f *Fleet) Scan(ctx context.Context, cursor string, opts ScanOptions) (ScanPage, error) {
	f.mu.Lock()
	p := f.proxies[f.rng.Intn(len(f.proxies))]
	f.mu.Unlock()
	return p.Scan(ctx, cursor, opts)
}
