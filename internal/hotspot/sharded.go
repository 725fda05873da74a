package hotspot

import (
	"math/bits"
	"time"
)

// Sharded is a Detector split by key hash into independent shards, each
// with its own lock, so touches of different keys on different cores
// do not queue on one mutex. A key is hashed once per touch: its shard
// and its count-min cells come from the same hash. Each shard is a
// Detector over its share of the count-min width, so a key lands in one
// of as many cells per row as it would in one Detector, and its
// estimate gains from collisions about what it would there: its shard's
// total over its shard's width. Each shard's Space-Saving summary holds
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
	for i := range s.shards {
		s.shards[i] = NewDetector(cfg)
	}
	return s
}

// shard returns the shard of the key whose fnv1a hash is h. FNV-1a's
// top bits hardly move with a key's last bytes, so the shard is taken
// from the top bits of the hash run through SplitMix64.
func (s *Sharded) shard(h uint64) *Detector {
	return s.shards[splitmix64(h)>>s.shift]
}

// Touch is Detector.Touch on key's shard.
func (s *Sharded) Touch(key []byte, now time.Time) float64 {
	h := fnv1a(key)
	d := s.shard(h)
	if d.skip() {
		return -1
	}
	return d.touchN(key, h, float64(d.rate), now)
}

// TouchN is Detector.TouchN on key's shard.
func (s *Sharded) TouchN(key []byte, w float64, now time.Time) float64 {
	h := fnv1a(key)
	return s.shard(h).touchN(key, h, w, now)
}

// Estimate is Detector.Estimate on key's shard, for a key held as a
// string.
func (s *Sharded) Estimate(key string) float64 {
	h := fnv1a(key)
	return s.shard(h).estimate(h)
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
