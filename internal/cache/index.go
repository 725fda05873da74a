package cache

// index is a shard's key index, the one both caches use: an
// open-addressed table of slots, a power of two long, probed linearly
// from the high half of the key's hash (the low bits picked the
// shard), never more than 3/4 full, so every probe run ends at a free
// slot. It doubles when full and never shrinks. A deletion empties its
// slot by backward shift, so there are no tombstones.
type index struct {
	slots []slot
	n     int // slots taken
}

// slot is one slot of an index, one cache line on a 64-bit platform
// (TestEntrySizes). It holds everything a hit reads, so a hit reads the
// slot and the value and, unless its key is longer than a slot holds,
// never the entry. A slot is free when e is nil.
type slot struct {
	e     *entry
	value []byte
	// expire is when the value expires, in nanoseconds after the
	// AU-LRU's epoch (see AULRU.nanos). The SA-LRU's values never
	// expire: it leaves expire, hot and due unset.
	expire int64
	// hash is the high half of the key's hash: masked, the slot the
	// key's probe starts from; whole, the tag a probe compares before
	// the key.
	hash uint32
	// klen is the key's length, capped at 255. A key of at most
	// inlineKey bytes is held in key; a longer one is compared against
	// the entry's.
	klen uint8
	// visited is CLOCK's reference bit: a hit or a write sets it, the
	// hand clears it (see clockList.victim).
	visited bool
	// hot is set once the entry is hit since its value was stored: it
	// lets the entry stand against a fill that would evict it.
	hot bool
	// due is set by the first hit inside the refresh window since the
	// value was stored; the second such hit renews the entry.
	due bool
	key [inlineKey]byte
}

const (
	// inlineKey is the longest key a slot holds itself.
	inlineKey = 16
	// minSlots is the size of a new shard's index.
	minSlots = 8
)

// find returns the slot holding key, whose hash is h, and true, or the
// free slot that ends key's probe run and false.
func (x *index) find(key []byte, h uint64) (int, bool) {
	tag, klen := uint32(h>>32), uint8(min(len(key), 255))
	mask := len(x.slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.e == nil {
			return i, false
		}
		if sl.hash == tag && sl.klen == klen && sl.holds(key) {
			return i, true
		}
	}
}

// holds reports whether the slot's key, of key's length, is key.
func (sl *slot) holds(key []byte) bool {
	if len(key) <= inlineKey {
		return string(sl.key[:len(key)]) == string(key)
	}
	return sl.e.key == string(key)
}

// add gives e, a new entry for key, whose hash is h, a slot holding
// value until expire, doubling the table first if it would be more
// than 3/4 full.
func (x *index) add(e *entry, key []byte, h uint64, value []byte, expire int64) {
	x.n++
	if 4*x.n > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]slot, 2*len(old))
		for _, sl := range old {
			if sl.e != nil {
				x.place(sl)
			}
		}
	}
	sl := slot{e: e, value: value, expire: expire, hash: uint32(h >> 32), klen: uint8(min(len(key), 255))}
	if len(key) <= inlineKey {
		copy(sl.key[:], key)
	}
	x.place(sl)
}

// place copies sl into the free slot that ends its key's probe run.
func (x *index) place(sl slot) {
	mask := len(x.slots) - 1
	i := int(sl.hash) & mask
	for x.slots[i].e != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = sl
	sl.e.slot = uint32(i)
}

// free empties slot i by backward shift: each later slot of the probe
// run whose key's probe passes the hole moves into it, leaving a hole
// where it was, until the run ends. No probe run then has a gap, so
// find needs no tombstones. Slots move, so a caller that frees in a
// loop holds entries, not slot numbers.
func (x *index) free(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].e != nil; j = (j + 1) & mask {
		// The slot may move back to i if its probe starts no later:
		// i lies between its home and j.
		if home := int(x.slots[j].hash) & mask; (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			x.slots[i].e.slot = uint32(i)
			i = j
		}
	}
	x.slots[i] = slot{}
	x.n--
}

// size is what e, one of x's entries, counts against its shard's byte
// bound.
func (x *index) size(e *entry) int64 { return int64(len(e.key) + len(x.slots[e.slot].value)) }
