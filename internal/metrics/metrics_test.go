package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBasicPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Millisecond || p50 > 550*time.Millisecond {
		t.Fatalf("p50 = %v, want ~500ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~990ms", p99)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramMax(t *testing.T) {
	h := NewHistogram()
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	if h.Max() != 30*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("negative observation dropped")
	}
	if h.Max() > time.Microsecond {
		t.Fatalf("negative clamped to %v", h.Max())
	}
}

func TestHistogramQuantileClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	if h.Quantile(-1) == 0 && h.Quantile(2) == 0 {
		t.Fatal("clamped quantiles should return a sample-derived value")
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Property: a single observation's p100 is within 6% of the true value.
	f := func(micro uint32) bool {
		d := time.Duration(micro%100_000_000+1) * time.Microsecond
		h := NewHistogram()
		h.Observe(d)
		got := h.Quantile(1.0)
		rel := math.Abs(float64(got-d)) / float64(d)
		return rel < 0.06
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// logBucket is the bucket rule bucketFor replaced, kept as the
// reference: a math.Log estimate of the bucket, fixed up to the first
// bound at or above d.
func logBucket(d time.Duration) int {
	if d <= histBucket0 {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histBucket0)) / math.Log(histBase))
	if i >= histBuckets {
		return histBuckets
	}
	for i > 0 && histBounds[i-1] >= d {
		i--
	}
	for i < histBuckets && histBounds[i] < d {
		i++
	}
	return i
}

// TestBucketForMatchesLogRule: the binary search picks the bucket the
// logarithm rule picks, at every bound, one nanosecond either side of
// it, and on a seeded log-uniform sweep past the last bound.
func TestBucketForMatchesLogRule(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketFor(d), logBucket(d); got != want {
			t.Fatalf("bucketFor(%d) = %d, log rule %d", d, got, want)
		}
	}
	check(0)
	for _, b := range histBounds {
		check(b - 1)
		check(b)
		check(b + 1)
	}
	rng := rand.New(rand.NewSource(1))
	top := math.Log(2 * float64(histBounds[histBuckets-1]))
	for i := 0; i < 200_000; i++ {
		check(time.Duration(math.Exp(rng.Float64() * top)))
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

// TestHistogramObserveWhileRead runs lock-free Observes against a
// reader: quantiles taken from one load of the buckets come out in
// order and within the observed range, Max never exceeds the largest
// sample, and once the writers stop Count, Max and the lowest quantile
// are exact.
func TestHistogramObserveWhileRead(t *testing.T) {
	h := NewHistogram()
	const writers, each = 4, 2000
	sample := func(g, i int) time.Duration { return time.Duration(1+(g*each+i)%500) * time.Microsecond }
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(sample(g, i))
			}
		}(g)
	}
	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		defer close(read)
		var counts [histBuckets + 1]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := h.load(&counts)
			if n == 0 {
				continue
			}
			if hi := h.Max(); hi < time.Microsecond || hi > 500*time.Microsecond {
				read <- fmt.Errorf("max %v outside [1µs, 500µs]", hi)
				return
			}
			p0, p50, p90, p99 := h.quantile(0, n, &counts), h.quantile(0.5, n, &counts), h.quantile(0.9, n, &counts), h.quantile(0.99, n, &counts)
			if p0 < time.Microsecond || p0 > p50 || p50 > p90 || p90 > p99 || p99 > 525*time.Microsecond {
				read <- fmt.Errorf("quantiles out of order: p0 %v p50 %v p90 %v p99 %v", p0, p50, p90, p99)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if n := h.Count(); n != writers*each {
		t.Fatalf("Count = %d, want %d", n, writers*each)
	}
	if h.Quantile(0) != time.Microsecond || h.Max() != 500*time.Microsecond {
		t.Fatalf("lowest quantile %v max %v, want 1µs 500µs", h.Quantile(0), h.Max())
	}
}

// BenchmarkHistogramObserve times one Observe into the caller's cell of
// a Striped histogram, as a request's latency is recorded, over samples
// spread from under a microsecond to a few milliseconds:
//
//	go test -run '^$' -bench HistogramObserve -benchmem -cpu 1,2 ./internal/metrics
func BenchmarkHistogramObserve(b *testing.B) {
	s := NewStriped[Histogram]()
	var samples [256]time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range samples {
		samples[i] = time.Duration(math.Exp(rng.Float64() * math.Log(float64(4*time.Millisecond))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			s.Cell().Observe(samples[i%len(samples)])
		}
	})
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestSeriesAppendOrdered(t *testing.T) {
	s := NewSeries()
	t0 := time.Unix(0, 0)
	s.Append(t0, 1)
	s.Append(t0.Add(time.Hour), 2)
	s.Append(t0.Add(30*time.Minute), 1.5) // out of order
	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T.Before(pts[i-1].T) {
			t.Fatalf("points out of order: %v", pts)
		}
	}
	if pts[1].V != 1.5 {
		t.Fatalf("out-of-order insert misplaced: %v", pts)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(0.5)
	if g.Value() != 2.0 {
		t.Fatalf("Value = %v", g.Value())
	}
	if old := g.Swap(0); old != 2.0 || g.Value() != 0 {
		t.Fatalf("Swap(0) = %v leaving %v, want 2 leaving 0", old, g.Value())
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 1000 {
		t.Fatalf("Value = %v, want 1000", g.Value())
	}
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Value(7) != 7 {
		t.Fatal("empty MA should return default")
	}
	m.Observe(1)
	m.Observe(2)
	m.Observe(3)
	if m.Value(0) != 2 {
		t.Fatalf("avg = %v", m.Value(0))
	}
	m.Observe(10) // evicts 1 → window {2,3,10}
	if m.Value(0) != 5 {
		t.Fatalf("avg after eviction = %v", m.Value(0))
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
}

// TestMovingAverageConcurrentValue mixes Observe and Value calls (run it
// under -race): Value is def before the first sample, the mean of some
// window while writers run, and exactly sum/n of the final window once
// they stop.
func TestMovingAverageConcurrentValue(t *testing.T) {
	const def = -1
	m := NewMovingAverage(64)
	if v := m.Value(def); v != def {
		t.Fatalf("Value before any sample = %v, want %v", v, def)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every sample is in [1, 8], so is every window's mean.
				if v := m.Value(def); v != def && (v < 1 || v > 8) {
					t.Errorf("Value = %v, outside every window's range", v)
					return
				}
			}
		}()
	}
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				m.Observe(float64(w + 1))
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	m.mu.Lock()
	want := m.sum / float64(m.countLocked())
	m.mu.Unlock()
	if got := m.Value(def); got != want {
		t.Fatalf("Value after the writers stopped = %v, want sum/n = %v", got, want)
	}
}

func TestMovingAveragePanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageProperty(t *testing.T) {
	// Property: average is always within [min, max] of the window.
	f := func(vals []float64) bool {
		m := NewMovingAverage(5)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			m.Observe(v)
		}
		if m.Count() == 0 {
			return true
		}
		// Approximate by checking it's finite.
		v := m.Value(0)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	mean, std := Stats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2) > 1e-9 {
		t.Fatalf("std = %v", std)
	}
	if m, s := Stats(nil); m != 0 || s != 0 {
		t.Fatal("empty Stats should be 0,0")
	}
}

// TestStripedSumsEveryCell adds to a Striped from many goroutines at
// once (run it under -race): the sums are exact, SumRequests merges the
// cells' histograms into one whose Count, Max and quantiles are those
// of one histogram observing every sample, and Reset zeroes every count
// but leaves RU to its owner.
func TestStripedSumsEveryCell(t *testing.T) {
	s := NewStriped[Requests]()
	want := NewHistogram()
	const goroutines, each = 8, 1000
	sample := func(g, i int) time.Duration { return time.Duration(1+(g*each+i)%700) * time.Microsecond }
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			want.Observe(sample(g, i))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c := s.Cell()
				c.Success.Inc()
				c.Hits.Add(2)
				c.RU.Add(0.5)
				c.Latency.Observe(sample(g, i))
			}
		}(g)
	}
	wg.Wait()
	r := SumRequests(s)
	if r.Success.Value() != goroutines*each || r.Hits.Value() != 2*goroutines*each || r.RU.Value() != goroutines*each/2 {
		t.Fatalf("sums: success %d, hits %d, RU %v", r.Success.Value(), r.Hits.Value(), r.RU.Value())
	}
	if r.Latency.Count() != want.Count() || r.Latency.Max() != want.Max() {
		t.Fatalf("merged latency: %d samples, max %v; one histogram of every sample: %d, %v",
			r.Latency.Count(), r.Latency.Max(), want.Count(), want.Max())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, exp := r.Latency.Quantile(q), want.Quantile(q); got != exp {
			t.Fatalf("merged quantile %v = %v, one histogram of every sample %v", q, got, exp)
		}
	}
	s.Each((*Requests).Reset)
	r = SumRequests(s)
	if r.Success.Value() != 0 || r.Hits.Value() != 0 || r.Latency.Count() != 0 || r.RU.Value() != goroutines*each/2 {
		t.Fatalf("after Reset: success %d, hits %d, %d samples, RU %v; want zeros and RU kept",
			r.Success.Value(), r.Hits.Value(), r.Latency.Count(), r.RU.Value())
	}
}

// TestBucketForMatchesSearch: the first-bound shortcut leaves every
// sample in the bucket the plain binary search picks, at zero, at every
// bound and one nanosecond either side of it.
func TestBucketForMatchesSearch(t *testing.T) {
	for _, b := range histBounds {
		for _, d := range []time.Duration{0, b - 1, b, b + 1} {
			if want, _ := slices.BinarySearch(histBounds, d); bucketFor(d) != want {
				t.Fatalf("bucketFor(%d) = %d, binary search %d", d, bucketFor(d), want)
			}
		}
	}
}
