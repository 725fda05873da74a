package metrics

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Point is a single timestamped observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only time series with downsampling helpers. It is
// the shape consumed by the forecaster (30-day usage history at 1-hour
// resolution) and the rescheduler (7-day hour-of-day load vectors).
// Safe for concurrent use.
type Series struct {
	mu     sync.RWMutex
	points []Point
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// SeriesFrom builds a series from parallel timestamp/value slices.
// It panics if the slices differ in length.
func SeriesFrom(ts []time.Time, vs []float64) *Series {
	if len(ts) != len(vs) {
		panic("metrics: SeriesFrom slice length mismatch")
	}
	s := NewSeries()
	for i := range ts {
		s.Append(ts[i], vs[i])
	}
	return s
}

// Append records a value at time t. Points are expected in
// non-decreasing time order; out-of-order points are inserted in place.
func (s *Series) Append(t time.Time, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.points)
	if n == 0 || !t.Before(s.points[n-1].T) {
		s.points = append(s.points, Point{t, v})
		return
	}
	i := sort.Search(n, func(i int) bool { return s.points[i].T.After(t) })
	s.points = append(s.points, Point{})
	copy(s.points[i+1:], s.points[i:])
	s.points[i] = Point{t, v}
}

// Len returns the number of points.
func (s *Series) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.points)
}

// Points returns a copy of all points.
func (s *Series) Points() []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Point(nil), s.points...)
}

// Values returns a copy of the values in time order.
func (s *Series) Values() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := make([]float64, len(s.points))
	for i, p := range s.points {
		vs[i] = p.V
	}
	return vs
}

// Agg selects the statistic used when downsampling a bucket.
type Agg int

// Aggregation kinds.
const (
	AggMean Agg = iota
	AggMax
	AggMin
	AggSum
)

func aggregate(vs []float64, a Agg) float64 {
	if len(vs) == 0 {
		return 0
	}
	switch a {
	case AggMax:
		m := vs[0]
		for _, v := range vs[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case AggMin:
		m := vs[0]
		for _, v := range vs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case AggSum:
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum
	default:
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}
}

// Downsample buckets the series into windows of width step, aggregating
// each bucket with agg. Empty buckets between data are carried forward
// with the previous bucket's value so the output is evenly spaced, as
// the forecaster expects. The bucket timestamp is the bucket start.
func (s *Series) Downsample(step time.Duration, agg Agg) *Series {
	pts := s.Points()
	out := NewSeries()
	if len(pts) == 0 || step <= 0 {
		return out
	}
	start := pts[0].T.Truncate(step)
	end := pts[len(pts)-1].T
	var bucket []float64
	i := 0
	prev := math.NaN()
	for t := start; !t.After(end); t = t.Add(step) {
		bucket = bucket[:0]
		next := t.Add(step)
		for i < len(pts) && pts[i].T.Before(next) {
			bucket = append(bucket, pts[i].V)
			i++
		}
		var v float64
		if len(bucket) == 0 {
			if math.IsNaN(prev) {
				continue
			}
			v = prev
		} else {
			v = aggregate(bucket, agg)
		}
		out.Append(t, v)
		prev = v
	}
	return out
}

// Stats returns mean and population standard deviation of the values.
func Stats(vs []float64) (mean, std float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(vs)))
	return mean, std
}
