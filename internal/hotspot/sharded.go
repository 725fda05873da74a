package hotspot

import (
	"math/bits"
	"time"

	"abase/internal/metrics"
)

// Sharded is a Detector split by key hash into independent shards, each
// with its own lock, so touches of different keys on different cores
// do not queue on one mutex. A key is hashed once per touch: its shard
// and its count-min cells come from the same hash. Each shard is a
// Detector over its share of the count-min width, so a key lands in one
// of as many cells per row as it would in one Detector, and its
// debiased estimate subtracts the collision mass of the whole sketch —
// every shard's total over the whole width — not its shard's: a shard
// holding a heavy hitter would otherwise under-count its other keys and
// the others over-count theirs. Each shard's Space-Saving summary holds
// its share of TopK entries, and TopK merges them: a key is missing
// only if its shard has that many hotter keys. Safe for concurrent use.
type Sharded struct {
	shards []*Detector
	shift  uint // a key's shard is its mixed hash >> shift
	topK   int
}

// NewSharded returns a sketch of cfg's shape split into n shards, n a
// power of two; one shard is one Detector.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 1 || n&(n-1) != 0 {
		panic("hotspot: shard count must be a power of two")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.Width <= 0 {
		cfg.Width = DefaultWidth
	}
	s := &Sharded{
		shards: make([]*Detector, n),
		shift:  uint(65 - bits.Len(uint(n))), // 64 for one shard: every hash >> 64 is 0
		topK:   cfg.TopK,
	}
	cfg.TopK, cfg.Width = max(cfg.TopK/n, 1), max(cfg.Width/n, 1)
	var all *sharedTotal
	if n > 1 {
		all = &sharedTotal{width: float64(cfg.Width * n)}
	}
	for i := range s.shards {
		s.shards[i] = NewDetector(cfg)
		s.shards[i].all = all
	}
	return s
}

// sharedTotal is the decayed weight every shard of a Sharded sketch has
// recorded: each shard adds what it records and what its decay takes
// away (see Detector.publishLocked). An atomic, so no shard waits on
// another's lock.
type sharedTotal struct {
	metrics.Gauge
	width float64 // the count-min width of all shards together
}

// shard returns key's shard and key's hash. FNV-1a's top bits hardly
// move with a key's last bytes, so the shard is taken from the top bits
// of the hash run through SplitMix64.
func (s *Sharded) shard(key []byte) (*Detector, uint64) {
	h := fnv1a(key)
	return s.shards[splitmix64(h)>>s.shift], h
}

// TouchHeat is Detector.TouchHeat on key's shard.
func (s *Sharded) TouchHeat(key []byte, now time.Time) Heat {
	d, h := s.shard(key)
	if d.skip() {
		return Heat{-1, -1}
	}
	return d.touchN(key, h, float64(d.rate), now)
}

// TouchN is Detector.TouchN on key's shard.
func (s *Sharded) TouchN(key []byte, w float64, now time.Time) float64 {
	d, h := s.shard(key)
	return d.touchN(key, h, w, now).Upper
}

// EstimateDebiased is Detector.EstimateDebiased on key's shard.
func (s *Sharded) EstimateDebiased(key []byte) float64 {
	d, h := s.shard(key)
	return d.estimate(h, true)
}

// TopK merges the shards' summaries: the hottest TopK keys of all
// shards, hottest first.
func (s *Sharded) TopK() []HotKey {
	var out []HotKey
	for _, d := range s.shards {
		out = append(out, d.TopK()...)
	}
	sortHot(out)
	if len(out) > s.topK {
		out = out[:s.topK]
	}
	return out
}
