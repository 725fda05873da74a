package metrics

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a log-bucketed latency histogram supporting percentile
// queries. Buckets grow geometrically from 1µs to ~17min, giving
// better-than-5% relative error across the range. Safe for concurrent
// use, and Observe takes no lock: every field is an atomic, so callers
// on many cores never queue behind one another. A sample writes one
// counter, its bucket's; the sample count is the buckets' sum, and max
// is only read unless the sample is a new largest. The zero value is an
// empty histogram, so a Striped cell holds one by value.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64
	max     atomic.Int64 // nanoseconds
}

const (
	histBase    = 1.05 // geometric bucket growth factor
	histBucket0 = time.Microsecond
	histBuckets = 420 // 1.05^420 µs ≈ 13 min

)

var histBounds = func() []time.Duration {
	b := make([]time.Duration, histBuckets)
	v := float64(histBucket0)
	for i := range b {
		b[i] = time.Duration(v)
		v *= histBase
	}
	return b
}()

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// bucketFor returns the index of the first bound at or above d, or
// histBuckets (the overflow bucket) when d exceeds every bound. A sample
// within the first bound, as nearly every proxy cache hit is, skips the
// search.
func bucketFor(d time.Duration) int {
	if d <= histBucket0 {
		return 0
	}
	i, _ := slices.BinarySearch(histBounds, d)
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Max first: a reader that sees the sample counted sees it within
	// Max.
	raise(&h.max, int64(d))
	h.buckets[bucketFor(d)].Add(1)
}

// raise stores v in a unless a already holds a value at or above it.
func raise(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// load copies the bucket counts into counts and returns their total.
// Quantiles taken from one copy agree with each other however many
// samples Observe adds meanwhile.
func (h *Histogram) load(counts *[histBuckets + 1]uint64) (n uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	return n
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	var counts [histBuckets + 1]uint64
	return h.load(&counts)
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the latency at quantile q in [0,1]. It returns 0 for
// an empty histogram. q is clamped to [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histBuckets + 1]uint64
	return h.quantile(q, h.load(&counts), &counts)
}

// quantile is Quantile over counts, which hold total samples.
func (h *Histogram) quantile(q float64, total uint64, counts *[histBuckets + 1]uint64) time.Duration {
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank && i < histBuckets {
			return histBounds[i]
		}
	}
	return h.Max()
}

// Reset clears all recorded samples. Samples observed while it runs may
// be partly kept.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.max.Store(0)
}

// Merge adds o's samples to h: how a reader of a Striped histogram
// gathers its cells into one.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	raise(&h.max, o.max.Load())
}

// Percentile returns the p-th percentile (p in [0,100]) of a float
// sample set. It sorts a copy; the input is not modified. Returns 0 for
// an empty slice.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
