package ru

import (
	"abase/internal/metrics"
)

// UnitBytes is U, the byte size of one request unit, empirically set to
// 2 KB in the paper.
const UnitBytes = 2048

// DefaultWindow is k, the moving-average window for read-size and
// cache-hit estimation.
const DefaultWindow = 1024

// WriteRU returns the RU charge for writing size bytes with the given
// replica count: one direct write plus r−1 synchronization operations.
// The minimum charge is one replica's worth.
func WriteRU(size int, replicas int) float64 {
	if replicas < 1 {
		replicas = 1
	}
	per := float64(size) / UnitBytes
	if per < 1.0/UnitBytes {
		per = 1.0 / UnitBytes // at least one byte's worth
	}
	return float64(replicas) * per
}

// ReadRU returns the RU charge for a read that returned size bytes,
// discounted by the hit probability already absorbed by caches (hitRatio
// in [0,1]). The paper charges on actual size with the expected miss
// factor applied to traffic-control estimates; for billing on actuals,
// pass hitRatio 0 for a miss and 1 for a hit.
func ReadRU(size int, hitRatio float64) float64 {
	if hitRatio < 0 {
		hitRatio = 0
	}
	if hitRatio > 1 {
		hitRatio = 1
	}
	return float64(size) * (1 - hitRatio) / UnitBytes
}

// scanExaminedPerRU is how many merged records a scan may examine per
// RU: visiting a record (including tombstones and expired records that
// return nothing) is far cheaper than transferring it, but not free.
const scanExaminedPerRU = 256

// minReadRU is the least any read costs: a length query's metadata
// lookup, an empty scan page's seek and merge set-up, and a read a node
// cache answers. It floors every read estimate and scan charge, so an
// estimate never reaches 0, which an empty token bucket would admit.
const minReadRU = 1.0 / 8

// ScanRU returns the RU charge for one range-scan page that returned
// size bytes of keys+values and examined n merged records. Scans
// bypass the caches, so no hit discount applies; the examined term
// bills the iteration work a tombstone- or TTL-heavy range costs even
// when it returns little.
func ScanRU(size int, examined int) float64 {
	charge := float64(size)/UnitBytes + float64(examined)/scanExaminedPerRU
	if charge < minReadRU {
		charge = minReadRU
	}
	return charge
}

// Estimator predicts read costs for traffic control before the value
// size and cache outcome are known, using moving averages over the last
// k requests (§4.1). Safe for concurrent use.
type Estimator struct {
	readSize *metrics.MovingAverage
	hitRatio *metrics.MovingAverage
	// per-collection length estimation for complex operations, e.g.
	// hash field counts for HLen/HGetAll.
	lenEst *metrics.MovingAverage
}

// NewEstimator returns an estimator with window k (DefaultWindow if
// k <= 0).
func NewEstimator(k int) *Estimator {
	if k <= 0 {
		k = DefaultWindow
	}
	return &Estimator{
		readSize: metrics.NewMovingAverage(k),
		hitRatio: metrics.NewMovingAverage(k),
		lenEst:   metrics.NewMovingAverage(k),
	}
}

// ObserveRead records a completed read's returned size and whether it
// hit a cache.
func (e *Estimator) ObserveRead(size int, hit bool) {
	e.readSize.Observe(float64(size))
	if hit {
		e.hitRatio.Observe(1)
	} else {
		e.hitRatio.Observe(0)
	}
}

// ReadBatch gathers a batch's reads for an estimator, which learns them
// as from ObserveRead one by one, in order, but takes each average's
// lock once per readBatchLen reads: the concurrent sub-batches of one
// batch then do not contend on it key by key. The zero value is empty;
// Flush when done. It lives on its user's stack and allocates nothing.
type ReadBatch struct {
	n           int
	sizes, hits [readBatchLen]float64
}

const readBatchLen = 16

// Add records one read (see ObserveRead), first handing e the reads
// gathered so far when the batch is full.
func (b *ReadBatch) Add(e *Estimator, size int, hit bool) {
	if b.n == readBatchLen {
		b.Flush(e)
	}
	b.sizes[b.n], b.hits[b.n] = float64(size), 0
	if hit {
		b.hits[b.n] = 1
	}
	b.n++
}

// Flush hands e the reads gathered since the last Flush.
func (b *ReadBatch) Flush(e *Estimator) {
	e.readSize.Observe(b.sizes[:b.n]...)
	e.hitRatio.Observe(b.hits[:b.n]...)
	b.n = 0
}

// ObserveCollectionLen records an observed collection length (e.g. the
// number of fields in a hash) for complex-operation estimation.
func (e *Estimator) ObserveCollectionLen(n int) {
	e.lenEst.Observe(float64(n))
}

// ExpectedReadSize returns E[S_read] with a 1-unit default before any
// observations.
func (e *Estimator) ExpectedReadSize() float64 {
	return e.readSize.Value(UnitBytes)
}

// ExpectedHitRatio returns E[R_hit], defaulting to 0 (pessimistic)
// before any observations.
func (e *Estimator) ExpectedHitRatio() float64 {
	return e.hitRatio.Value(0)
}

// ExpectedCollectionLen returns the expected collection length,
// defaulting to 1.
func (e *Estimator) ExpectedCollectionLen() float64 {
	return e.lenEst.Value(1)
}

// EstimateReadRU returns the pre-execution RU estimate for a simple
// read: E[S_read]·(1−E[R_hit])/U, at least minReadRU. Without the
// floor, reads that recently all hit node caches would estimate 0.
func (e *Estimator) EstimateReadRU() float64 {
	return max(e.ExpectedReadSize()*(1-e.ExpectedHitRatio())/UnitBytes, minReadRU)
}

// EstimateHLenRU returns the RU estimate for a length query (HLen):
// a fixed small CPU cost independent of collection size, one unit's
// worth of work.
func (e *Estimator) EstimateHLenRU() float64 {
	return minReadRU // metadata-only lookup: fraction of a unit
}

// EstimateScanRU returns the pre-execution RU estimate for a range
// scan bounded at limit entries: limit·E[S_read]/U with the scan
// floor. Scans bypass the caches, so unlike EstimateReadRU no hit
// discount applies.
func (e *Estimator) EstimateScanRU(limit int) float64 {
	if limit <= 0 {
		limit = 1
	}
	est := float64(limit) * e.ExpectedReadSize() / UnitBytes
	if est < minReadRU {
		est = minReadRU
	}
	return est
}

// EstimateHGetAllRU returns the RU estimate for HGetAll decomposed per
// the paper: an HLen stage followed by a scan of the expected number of
// fields at the expected per-item size.
func (e *Estimator) EstimateHGetAllRU() float64 {
	scan := e.ExpectedCollectionLen() * e.ExpectedReadSize() * (1 - e.ExpectedHitRatio()) / UnitBytes
	return e.EstimateHLenRU() + scan
}
