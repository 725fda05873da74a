package hotspot

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"abase/internal/clock"
)

// refDetector is the always-scan update the Detector replaced, kept as
// the reference: every touch of a key outside a full summary scans all
// counters for the minimum. It shares nothing with Detector but the
// hash functions.
type refDetector struct {
	topK, width int
	window      time.Duration
	clk         clock.Clock
	rows        [][]float64
	ss          map[string]*ssEntry
	lastDecay   time.Time
	total       float64
}

func newRefDetector(cfg Config) *refDetector {
	r := &refDetector{
		topK: cfg.TopK, width: cfg.Width, window: cfg.Window, clk: cfg.Clock,
		rows: make([][]float64, cfg.Depth), ss: map[string]*ssEntry{},
		lastDecay: cfg.Clock.Now(),
	}
	for i := range r.rows {
		r.rows[i] = make([]float64, cfg.Width)
	}
	return r
}

func (r *refDetector) cells(key []byte) []*float64 {
	h1 := fnv1a(key)
	h2 := h1>>29 | h1<<35
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	out := make([]*float64, len(r.rows))
	for i := range r.rows {
		out[i] = &r.rows[i][int((h1+uint64(i)*h2)%uint64(r.width))]
	}
	return out
}

func (r *refDetector) decay(now time.Time) {
	elapsed := now.Sub(r.lastDecay)
	if elapsed < r.window {
		return
	}
	halvings := int(elapsed / r.window)
	r.lastDecay = r.lastDecay.Add(time.Duration(halvings) * r.window)
	if halvings > 60 {
		halvings = 60
	}
	factor := math.Pow(0.5, float64(halvings))
	for _, row := range r.rows {
		for j := range row {
			row[j] *= factor
		}
	}
	r.total *= factor
	for k, e := range r.ss {
		e.count *= factor
		e.err *= factor
		if e.count < 0.5 {
			delete(r.ss, k)
		}
	}
}

func (r *refDetector) touch(key []byte, w float64, now time.Time) (est float64) {
	r.decay(now)
	est = math.Inf(1)
	for _, c := range r.cells(key) {
		*c += w
		est = math.Min(est, *c)
	}
	r.total += w
	if e, ok := r.ss[string(key)]; ok {
		e.count += w
	} else if len(r.ss) < r.topK {
		r.ss[string(key)] = &ssEntry{count: w}
	} else {
		var minKey string
		minCount := math.Inf(1)
		for k, e := range r.ss {
			if e.count < minCount || (e.count == minCount && k < minKey) {
				minKey, minCount = k, e.count
			}
		}
		if minCount < est {
			delete(r.ss, minKey)
			r.ss[string(key)] = &ssEntry{count: minCount + w, err: minCount}
		}
	}
	return est
}

func (r *refDetector) estimate(key []byte) float64 {
	r.decay(r.clk.Now())
	est := math.Inf(1)
	for _, c := range r.cells(key) {
		est = math.Min(est, *c)
	}
	return est
}

func (r *refDetector) topKeys() []HotKey {
	r.decay(r.clk.Now())
	out := make([]HotKey, 0, len(r.ss))
	for k, e := range r.ss {
		out = append(out, HotKey{Key: k, Count: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (r *refDetector) reset() {
	for _, row := range r.rows {
		clear(row)
	}
	r.ss = map[string]*ssEntry{}
	r.total = 0
	r.lastDecay = r.clk.Now()
}

// TestTouchMatchesAlwaysScan drives the detector and the always-scan
// reference with the same seeded streams — Zipf and uniform phases,
// across decay boundaries (single, multiple and summary-emptying) and a
// Reset — and requires every touch's return value, every estimate and
// the whole summary (keys, counts, error bounds) to match exactly. Each
// touch carries an explicit arrival time: the clock's reading, or in the
// "-lagging" runs one up to a few milliseconds behind it, as when a
// request that arrived earlier touches after a later one already
// decayed the counts. Queries read the clock.
func TestTouchMatchesAlwaysScan(t *testing.T) {
	configs := map[string]Config{
		// The proxy sketch: 32 counters, unsampled.
		"proxy": {TopK: 32, Width: 2048, Depth: DefaultDepth, Window: 10 * time.Second},
		// The DataNode detector's defaults.
		"datanode": {TopK: DefaultTopK, Width: DefaultWidth, Depth: DefaultDepth, Window: 10 * time.Second},
		// A summary far smaller than the hot set, so eviction is constant.
		"tiny": {TopK: 4, Width: 64, Depth: 2, Window: time.Second},
	}
	for _, lagging := range []bool{false, true} {
		for name, cfg := range configs {
			if lagging {
				name += "-lagging"
			}
			t.Run(name, func(t *testing.T) { touchMatchesAlwaysScan(t, cfg, lagging) })
		}
	}
}

func touchMatchesAlwaysScan(t *testing.T, cfg Config, lagging bool) {
	clk := clock.NewSim(time.Unix(0, 0))
	cfg.Clock = clk
	d, ref := NewDetector(cfg), newRefDetector(cfg)
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16)
	const touches = 120000
	for i := 0; i < touches; i++ {
		var k []byte
		if (i/20000)%2 == 0 {
			k = key(int(zipf.Uint64()))
		} else {
			k = key(rng.Intn(5000))
		}
		// Mostly unit weight (Touch at SampleRate 1); the rest
		// are the weights a sampled detector records.
		w := 1.0
		if rng.Intn(10) == 0 {
			w = float64(1 + rng.Intn(8))
		}
		now := clk.Now()
		if lagging {
			now = now.Add(-time.Duration(rng.Intn(5000)) * time.Microsecond)
		}
		if got, want := d.TouchN(k, w, now), ref.touch(k, w, now); got != want {
			t.Fatalf("touch %d of %s: returned %v, reference %v", i, k, got, want)
		}
		if i%7 == 0 {
			clk.Advance(time.Millisecond)
		}
		if i%9973 == 0 {
			clk.Advance(3 * cfg.Window) // several halvings at once
		}
		if i == 70000 {
			clk.Advance(40 * cfg.Window) // decays the summary empty
		}
		if i == 90000 {
			d.Reset()
			ref.reset()
		}
		if i%1000 != 0 && i != touches-1 {
			continue
		}
		got2, want2 := d.TopK(), ref.topKeys()
		if len(got2) != len(want2) {
			t.Fatalf("touch %d: summary holds %d keys, reference %d", i, len(got2), len(want2))
		}
		for j := range got2 {
			if got2[j] != want2[j] {
				t.Fatalf("touch %d: TopK[%d] = %+v, reference %+v", i, j, got2[j], want2[j])
			}
		}
		for j := 0; j < 64; j++ {
			probe := key(rng.Intn(6000))
			if got, want := d.Estimate(probe), ref.estimate(probe); got != want {
				t.Fatalf("touch %d: Estimate(%s) = %v, reference %v", i, probe, got, want)
			}
		}
		if total := d.Total(); total != ref.total {
			t.Fatalf("touch %d: Total = %v, reference %v", i, total, ref.total)
		}
	}
}

// saturated returns a detector whose summary is full of keys far hotter
// than the cold keys the benchmarks touch.
func saturated(b *testing.B) *Detector {
	d := NewDetector(Config{TopK: 32, Width: 2048, Window: time.Hour})
	for i := 0; i < 32; i++ {
		d.TouchN(key(i), 1e6, time.Now())
	}
	b.ReportAllocs()
	b.ResetTimer()
	return d
}

// BenchmarkTouchHot touches keys held by the summary. The arrival time
// is the caller's, read once outside the loop as a request reads it
// once outside the sketch.
func BenchmarkTouchHot(b *testing.B) {
	d := saturated(b)
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = key(i)
	}
	now := time.Now()
	for i := 0; i < b.N; i++ {
		d.Touch(keys[i%len(keys)], now)
	}
}

// BenchmarkTouchCold touches keys outside a saturated summary that
// cannot displace its minimum: the case the always-scan update paid a
// pass over every counter for.
func BenchmarkTouchCold(b *testing.B) {
	d := saturated(b)
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = key(1000 + i)
	}
	now := time.Now()
	for i := 0; i < b.N; i++ {
		d.Touch(keys[i%len(keys)], now)
	}
}
