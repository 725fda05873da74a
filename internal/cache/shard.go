package cache

import (
	"hash/maphash"
	"math/bits"
)

// A cache is split into shards by key hash, each with its own lock and
// its own share of the capacity, so callers on different cores that
// touch different keys do not queue on one mutex. The count comes from
// the capacity alone: one shard per MiB, rounded down to a power of
// two, at most maxShards. A cache under 2 MiB is one shard, one exact
// LRU over the whole capacity.
const (
	shardBytes = 1 << 20
	maxShards  = 16
)

// Shards returns how many shards a cache of capacity bytes has.
func Shards(capacity int64) int {
	n := min(max(capacity/shardBytes, 1), maxShards)
	return 1 << (bits.Len64(uint64(n)) - 1)
}

// picker routes a key to its shard. The hash is seeded per cache, so a
// key set that crowds one shard of one cache spreads in the next.
type picker struct {
	seed maphash.Seed
	mask uint64 // shards-1; the count is a power of two
}

func newPicker(shards int) picker {
	return picker{seed: maphash.MakeSeed(), mask: uint64(shards - 1)}
}

// hash returns key's seeded hash. Its low bits, masked, pick the
// shard; the shard's index is probed with the high half.
func (p picker) hash(key []byte) uint64 { return maphash.Bytes(p.seed, key) }

// shardOf returns key's shard of shards, which p splits the cache
// into, and key's hash, which probes the shard's index.
func shardOf[S any](shards []S, p picker, key []byte) (*S, uint64) {
	h := p.hash(key)
	return &shards[h&p.mask], h
}
