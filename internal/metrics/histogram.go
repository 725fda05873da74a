package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Histogram is a log-bucketed latency histogram supporting percentile
// queries. Buckets grow geometrically from 1µs to ~17min, giving
// better-than-5% relative error across the range. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
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
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets+1)}
}

// bucketFor returns the index of the first bound at or above d, or
// histBuckets (the overflow bucket) when d exceeds every bound.
func bucketFor(d time.Duration) int {
	i, _ := slices.BinarySearch(histBounds, d)
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketFor(d)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average of recorded samples, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the latency at quantile q in [0,1]. It returns 0 for
// an empty histogram. q is clamped to [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i >= histBuckets {
				return h.max
			}
			return histBounds[i]
		}
	}
	return h.max
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Snapshot returns a point-in-time summary of the histogram.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Summary is a point-in-time percentile summary of a Histogram.
type Summary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
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
