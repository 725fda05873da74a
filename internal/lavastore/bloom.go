package lavastore

import "hash/fnv"

// bloomFilter is a classic Bloom filter with double hashing, sized at
// 10 bits per key (≈1% false-positive rate with 7 probes).
type bloomFilter struct {
	bits  []byte
	k     uint32
	nbits uint32
}

const (
	bloomBitsPerKey = 10
	bloomProbes     = 7
)

func newBloomFilter(nkeys int) *bloomFilter {
	if nkeys < 1 {
		nkeys = 1
	}
	nbits := uint32(nkeys * bloomBitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{
		bits:  make([]byte, (nbits+7)/8),
		k:     bloomProbes,
		nbits: nbits,
	}
}

// bloomHash is the one hash a key's probe positions derive from.
func bloomHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

// Add inserts key into the filter.
func (b *bloomFilter) Add(key []byte) { b.addHash(bloomHash(key)) }

// addHash inserts a key by its bloomHash, so a writer can keep eight
// bytes per key, not the key, until the filter's size is known.
func (b *bloomFilter) addHash(v uint64) {
	h1, h2 := uint32(v), uint32(v>>32)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % b.nbits
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// MayContain reports whether key might be in the filter. False means
// definitely absent.
func (b *bloomFilter) MayContain(key []byte) bool {
	if b.nbits == 0 {
		return true
	}
	v := bloomHash(key)
	h1, h2 := uint32(v), uint32(v>>32)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + i*h2) % b.nbits
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// Marshal serializes the filter: k (1 byte) | nbits (4 bytes LE) | bits.
func (b *bloomFilter) Marshal() []byte {
	out := make([]byte, 5+len(b.bits))
	out[0] = byte(b.k)
	putUint32(out[1:5], b.nbits)
	copy(out[5:], b.bits)
	return out
}

func unmarshalBloom(data []byte) *bloomFilter {
	if len(data) < 5 {
		return &bloomFilter{}
	}
	return &bloomFilter{
		k:     uint32(data[0]),
		nbits: getUint32(data[1:5]),
		bits:  data[5:],
	}
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
