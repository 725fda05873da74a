package hotspot

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/clock"
	"abase/internal/metrics"
)

// Defaults for Config fields left zero.
const (
	// DefaultTopK is the Space-Saving summary capacity.
	DefaultTopK = 16
	// DefaultWidth is the count-min width (cells per row).
	DefaultWidth = 512
	// DefaultDepth is the count-min depth (rows).
	DefaultDepth = 3
	// DefaultWindow is the decay half-life: counts halve once per
	// elapsed window, so the sketch tracks the recent window rather
	// than all of history.
	DefaultWindow = 10 * time.Second
	// DefaultSampleRate records every access (no sampling).
	DefaultSampleRate = 1
)

// Config configures a Detector.
type Config struct {
	// TopK is the Space-Saving summary capacity (DefaultTopK if zero).
	TopK int
	// Width is the count-min row width (DefaultWidth if zero).
	Width int
	// Depth is the count-min row count (DefaultDepth if zero).
	Depth int
	// Window is the decay half-life (DefaultWindow if zero).
	Window time.Duration
	// SampleRate records one in every SampleRate touches, each with
	// weight SampleRate so estimates stay unbiased. 1 (the default)
	// records every touch; higher rates keep the hot path cheaper at
	// the cost of resolution on cold keys.
	SampleRate int
	// Clock defaults to the real clock.
	Clock clock.Clock
}

// HotKey is one entry of a top-k summary.
type HotKey struct {
	Key   string
	Count float64
	// Err bounds the overestimate Count inherited from Space-Saving
	// evictions: the key's true windowed count is within [Count-Err,
	// Count]. Zero for keys that entered an unsaturated summary.
	Err float64
}

// ssEntry is one Space-Saving counter.
type ssEntry struct {
	// key is the counted key. An evicted entry is reused for the key
	// that displaced it, buffer included, so a full summary allocates
	// nothing when its members change.
	key   []byte
	count float64
	// err bounds the overestimate inherited from the evicted minimum.
	err float64
}

// Detector is a windowed heavy-hitter detector: a decayed count-min
// sketch estimates any key's recent access count, and a Space-Saving
// summary tracks the top-k keys by that count. Counts halve every
// Window, so sustained heat dominates stale bursts. Safe for
// concurrent use; Touch is a single short critical section (sampled
// touches that are not recorded never take the lock).
type Detector struct {
	topK   int
	width  int
	depth  int
	window time.Duration
	rate   uint64
	clk    clock.Clock

	ctr atomic.Uint64 // sampling counter, lock-free

	mu   sync.Mutex
	rows [][]float64
	// ss is the Space-Saving summary, keyed by fnv1a hash: keys that
	// share one count as one, as they already do in the count-min.
	ss map[uint64]*ssEntry
	// ssFloor is a lower bound of the smallest count in ss (+Inf while
	// ss is empty). A key outside a full summary displaces the minimum
	// only when its estimate exceeds it, so a touch whose estimate is
	// at or below the floor skips the scan for the minimum. Counts only
	// grow between decays, which keeps the floor valid without
	// tracking the minimum itself; every scan re-tightens it.
	ssFloor   float64
	lastDecay time.Time
	total     float64 // decayed total recorded weight
}

// NewDetector returns a detector with cfg's parameters (zero fields
// take the package defaults).
func NewDetector(cfg Config) *Detector {
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.Width <= 0 {
		cfg.Width = DefaultWidth
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	d := &Detector{
		topK:    cfg.TopK,
		width:   cfg.Width,
		depth:   cfg.Depth,
		window:  cfg.Window,
		rate:    uint64(cfg.SampleRate),
		clk:     cfg.Clock,
		rows:    make([][]float64, cfg.Depth),
		ss:      make(map[uint64]*ssEntry, cfg.TopK),
		ssFloor: math.Inf(1),
	}
	for i := range d.rows {
		d.rows[i] = make([]float64, cfg.Width)
	}
	d.lastDecay = cfg.Clock.Now()
	return d
}

// fnv1a is the 64-bit FNV-1a hash, inlined so Touch allocates nothing.
func fnv1a[K string | []byte](key K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// cells derives the per-row cell indexes via Kirsch-Mitzenmacher
// double hashing: index_i = h1 + i·h2 (mod width).
func (d *Detector) cell(h1, h2 uint64, row int) int {
	return int((h1 + uint64(row)*h2) % uint64(d.width))
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer that
// decorrelates the sampling decision from the touch sequence number.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Touch records one access to key at now (subject to sampling) and
// returns the key's post-touch windowed count estimate, or -1 when
// sampling skipped the access — skipped touches never take the lock.
// now is the caller's arrival time for the request: the count decays to
// it, so a request reads the clock once for everything that needs
// "now". The sampling decision mixes the sequence counter through
// SplitMix64, so periodic access patterns (fixed-size batches with a
// stable key order) cannot alias with the sampling stride and
// systematically over- or under-count positions.
func (d *Detector) Touch(key []byte, now time.Time) float64 {
	if d.skip() {
		return -1
	}
	return d.touchN(key, fnv1a(key), float64(d.rate), now)
}

// skip reports whether sampling skips this touch.
func (d *Detector) skip() bool {
	return d.rate > 1 && splitmix64(d.ctr.Add(1))%d.rate != 0
}

// TouchN records an access at now with explicit weight w > 0
// (bypassing the sampler) and returns the key's post-touch estimate.
func (d *Detector) TouchN(key []byte, w float64, now time.Time) float64 {
	return d.touchN(key, fnv1a(key), w, now)
}

// secondHash derives the double-hashing stride from h1.
func secondHash(h1 uint64) uint64 {
	h2 := h1>>29 | h1<<35 // odd-ish second hash; any mix works for K-M
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h2
}

// touchN records weight w for key, whose fnv1a hash is h1, and returns
// the key's post-touch estimate.
func (d *Detector) touchN(key []byte, h1 uint64, w float64, now time.Time) float64 {
	h2 := secondHash(h1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maybeDecayLocked(now)
	est := math.Inf(1)
	for i := range d.rows {
		c := &d.rows[i][d.cell(h1, h2, i)]
		*c += w
		if *c < est {
			est = *c
		}
	}
	d.total += w
	// Space-Saving update keyed on the same weight.
	if e, ok := d.ss[h1]; ok {
		e.count += w
	} else if len(d.ss) < d.topK {
		d.ss[h1] = &ssEntry{key: bytes.Clone(key), count: w}
		d.ssFloor = math.Min(d.ssFloor, w)
	} else if est > d.ssFloor { // est already includes this touch
		// Evict the minimum counter and inherit its count as error;
		// equal counts fall to the smallest key, so the summary is a
		// function of the touch sequence and not of map order.
		var victimH uint64
		var victim *ssEntry
		for h, e := range d.ss {
			if victim == nil || e.count < victim.count || (e.count == victim.count && bytes.Compare(e.key, victim.key) < 0) {
				victimH, victim = h, e
			}
		}
		// The entry that replaces the minimum counts more than it did.
		d.ssFloor = victim.count
		if victim.count < est {
			delete(d.ss, victimH)
			victim.key = append(victim.key[:0], key...)
			victim.count, victim.err = victim.count+w, victim.count
			d.ss[h1] = victim
		}
	}
	return est
}

// Estimate returns the key's windowed access-count estimate (the
// count-min minimum over rows, decayed to now). It never
// underestimates a key recorded in the window; collisions can
// overestimate by at most the window total / width.
func (d *Detector) Estimate(key []byte) float64 {
	return d.estimate(fnv1a(key))
}

// estimate is Estimate of the key whose fnv1a hash is h1.
func (d *Detector) estimate(h1 uint64) float64 {
	h2 := secondHash(h1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maybeDecayLocked(d.clk.Now())
	est := math.Inf(1)
	for i := range d.rows {
		if c := d.rows[i][d.cell(h1, h2, i)]; c < est {
			est = c
		}
	}
	return est
}

// TopK returns the current heavy hitters, hottest first. Counts are
// windowed (decayed) estimates; each entry's true count is within its
// Space-Saving error of the reported value.
func (d *Detector) TopK() []HotKey {
	d.mu.Lock()
	d.maybeDecayLocked(d.clk.Now())
	out := make([]HotKey, 0, len(d.ss))
	for _, e := range d.ss {
		out = append(out, HotKey{Key: string(e.key), Count: e.count, Err: e.err})
	}
	d.mu.Unlock()
	sortHot(out)
	return out
}

// sortHot orders a summary hottest first, ties by key.
func sortHot(keys []HotKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Count != keys[j].Count {
			return keys[i].Count > keys[j].Count
		}
		return keys[i].Key < keys[j].Key
	})
}

// Total returns the decayed total weight recorded in the window.
func (d *Detector) Total() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maybeDecayLocked(d.clk.Now())
	return d.total
}

// Reset clears all counts (experiment windows).
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.rows {
		for j := range d.rows[i] {
			d.rows[i][j] = 0
		}
	}
	clear(d.ss)
	d.ssFloor = math.Inf(1)
	d.total = 0
	d.lastDecay = d.clk.Now()
}

// maybeDecayLocked halves every count once per window elapsed by now.
// Decay is lazy — applied on the next touch or query — so idle detectors
// cost nothing. A now behind the last decay (a request that arrived
// before a concurrent one decayed the counts) decays nothing.
// +locked:d.mu
func (d *Detector) maybeDecayLocked(now time.Time) {
	elapsed := now.Sub(d.lastDecay)
	if elapsed < d.window {
		return
	}
	halvings := int(elapsed / d.window)
	d.lastDecay = d.lastDecay.Add(time.Duration(halvings) * d.window)
	if halvings > 60 { // factor below 1e-18: everything is zero
		halvings = 60
	}
	factor := math.Pow(0.5, float64(halvings))
	for i := range d.rows {
		row := d.rows[i]
		for j := range row {
			row[j] *= factor
		}
	}
	d.total *= factor
	d.ssFloor *= factor // Inf stays Inf: factor is never zero
	for k, e := range d.ss {
		e.count *= factor
		e.err *= factor
		// Drop entries decayed to noise so new heavy hitters can enter
		// without paying the eviction error of a stale count.
		if e.count < 0.5 {
			delete(d.ss, k)
		}
	}
}

// Meter is an exponentially decayed rate counter: Add accumulates
// events and Rate reports the recent per-second rate with time
// constant Tau. It is the per-partition heat signal, added to on every
// request, so Add takes no lock and computes no exponential: within a
// step (a meterStep-th of a time constant) of the last fold it adds to
// a pending count, and the first Add after the step, or Rate, folds the
// count in, decayed from the last fold. A pending event therefore
// decays from up to a step before its arrival; a meter added to less
// often than once a step decays every event from its own arrival,
// exactly. Safe for concurrent use.
type Meter struct {
	tau float64 // seconds
	clk clock.Clock
	// pending holds the events added since the last fold.
	pending metrics.Gauge
	// nextFold is when, in Unix nanoseconds, an Add next folds.
	nextFold atomic.Int64
	// mu guards the fold: value is the decayed count at last, the last
	// fold.
	mu    sync.Mutex
	value float64
	last  time.Time
}

// meterStep is how many folds a Meter makes per time constant at most:
// an event's weight is off by at most 1/meterStep.
const meterStep = 1024

// DefaultTau is the Meter decay time constant.
const DefaultTau = 10 * time.Second

// NewMeter returns a meter with decay time constant tau (DefaultTau if
// non-positive) on clk (real clock if nil).
func NewMeter(tau time.Duration, clk clock.Clock) *Meter {
	if tau <= 0 {
		tau = DefaultTau
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Meter{tau: tau.Seconds(), clk: clk, last: clk.Now()}
}

// foldLocked adds the pending events, which arrived within a step of
// the last fold, to the meter's count and decays it from there to now.
// +locked:m.mu
func (m *Meter) foldLocked(now time.Time) {
	m.value += m.pending.Swap(0)
	if dt := now.Sub(m.last).Seconds(); dt > 0 {
		m.value *= math.Exp(-dt / m.tau)
		m.last = now
	}
	m.nextFold.Store(now.UnixNano() + int64(m.tau*1e9/meterStep))
}

// Add records n events at now, the caller's arrival time for the
// request.
func (m *Meter) Add(n float64, now time.Time) {
	if now.UnixNano() >= m.nextFold.Load() && m.mu.TryLock() {
		m.foldLocked(now)
		m.value += n
		m.mu.Unlock()
		return
	}
	m.pending.Add(n)
}

// Rate returns the decayed events-per-second rate: under a steady
// input of r events/s the meter converges to r.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.foldLocked(m.clk.Now())
	return m.value / m.tau
}

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending.Swap(0)
	m.value = 0
	m.last = m.clk.Now()
	m.nextFold.Store(0)
}
