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

// Series is an append-only time series, the shape consumed by the
// forecaster (30-day usage history at 1-hour resolution) and the
// rescheduler (7-day hour-of-day load vectors). Safe for concurrent use.
type Series struct {
	mu     sync.RWMutex
	points []Point
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

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
