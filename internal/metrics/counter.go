package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Swap stores v and returns the value it replaced: how a windowed
// reader takes and resets an accumulator in one step.
func (g *Gauge) Swap(v float64) float64 {
	return math.Float64frombits(g.bits.Swap(math.Float64bits(v)))
}

// MovingAverage maintains the average of the last k observations. It is
// used by the RU estimator for E[S_read] and E[R_hit] over the last k
// requests (§4.1). Safe for concurrent use: Observe serializes on a
// mutex, and Value reads the mean the last Observe published without
// taking it.
type MovingAverage struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
	sum  float64
	// mean is the window's mean, sum/n, as float64 bits: NaN before the
	// first sample, written only under mu.
	mean atomic.Uint64
}

// NewMovingAverage returns a moving average over a window of k samples.
// k must be positive.
func NewMovingAverage(k int) *MovingAverage {
	if k <= 0 {
		panic("metrics: MovingAverage window must be positive")
	}
	m := &MovingAverage{buf: make([]float64, k)}
	m.mean.Store(math.Float64bits(math.NaN()))
	return m
}

// Observe adds samples in order, evicting the oldest while the window
// is full. Several samples take the lock once.
func (m *MovingAverage) Observe(vs ...float64) {
	if len(vs) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range vs {
		if m.full {
			m.sum -= m.buf[m.next]
		}
		m.buf[m.next] = v
		m.sum += v
		m.next++
		if m.next == len(m.buf) {
			m.next = 0
			m.full = true
		}
	}
	m.mean.Store(math.Float64bits(m.sum / float64(m.countLocked())))
}

// Value returns the current average, or def when no samples have been
// observed yet.
func (m *MovingAverage) Value(def float64) float64 {
	if v := math.Float64frombits(m.mean.Load()); !math.IsNaN(v) {
		return v
	}
	return def
}

// Count returns the number of samples currently in the window.
func (m *MovingAverage) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.countLocked()
}

// countLocked is Count under mu.
// +locked:m.mu
func (m *MovingAverage) countLocked() int {
	if m.full {
		return len(m.buf)
	}
	return m.next
}
