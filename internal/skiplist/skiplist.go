package skiplist

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

const maxHeight = 16

// Keys and values live in data pages, each prefixed with its uvarint
// length. An address is page<<dataShift | offset. Anything larger than
// a quarter page gets a page of its own, sized to fit, so the tail a
// full page wastes stays under a quarter of it.
const (
	dataShift    = 16
	dataPageSize = 1 << dataShift
	dataMask     = dataPageSize - 1
	bigData      = dataPageSize / 4
	maxDataPages = 1 << (32 - dataShift)
)

// Nodes live in tower pages of 32-bit slots: the value's address, the
// key's address, then one next-node reference per level. A reference is
// page<<towerShift | slot.
const (
	towerShift     = 12
	towerPageSlots = 1 << towerShift
	towerMask      = towerPageSlots - 1
	maxTowerPages  = 1 << (32 - towerShift)

	nodeValue = 0
	nodeKey   = 1
	nodeTower = 2
)

// Page 0 of each kind is a nil placeholder, so address and reference 0
// are never handed out and stand for none (and, as a node, the head).
const none = 0

// pages is the page directory. Readers load it whole; the writer
// publishes a new one per page added. A published page never moves, and
// it is reused only once its list is released, so a slice into one stays
// valid until then.
type pages struct {
	data   [][]byte
	towers [][]atomic.Uint32
}

// List is a concurrent skiplist whose nodes, keys and values all live in
// pages holding no pointers, with a hash index beside the towers. Readers
// never lock; writers serialize on a mutex. The zero value is not
// usable; call New.
//
// A key has one linearization point, its level-0 link: from then on Get,
// Seek and iteration all find it, and before it none does. The writer
// fills the key's index slot twice around that link: marked linking
// before it, plain after it. A Get whose probe ends on a linking slot
// answers from the towers, as a seek, so it finds the key exactly when
// an iterator would.
type List struct {
	head   [maxHeight]atomic.Uint32
	height atomic.Int32 // levels in use; every level above it is empty
	dir    atomic.Pointer[pages]
	index  atomic.Pointer[index] // nil until the first insert and after Release
	length atomic.Int64
	bytes  atomic.Int64 // live key and value bytes
	paged  atomic.Int64 // bytes of every page, live or dead

	mu     sync.Mutex // serializes writers; guards what follows
	rng    rand.PCG
	keys   cursor
	vals   cursor
	towers []atomic.Uint32 // current tower page
	towerN uint32          // its index
	towerO uint32          // its first free slot
}

// index maps each key to its node: an open-addressed table of 8-byte
// slots, a power of two long, probed linearly from the slot the key's
// tag picks and never more than 3/4 full, so every probe run ends at a
// free slot. A slot is 0 when free, else linking | tag<<32 | node
// reference, where the tag is the top 31 bits of the key's hash, never
// 0. Keys are never removed, so a filled slot stays filled. The writer
// doubles the table by re-placing every slot from its tag, reading no
// key, and publishes the new table with one store. The old table is
// never written again, so a reader still probing it finds every key
// filled before the doubling.
type index []atomic.Uint64

const (
	// minSlots is a new index's length, 1 KiB of slots, so that an idle
	// or one-key list stays small.
	minSlots = 128
	// linking marks the slot of a node whose level-0 link may not be
	// stored yet.
	linking = 1 << 63
)

var hashSeed = maphash.MakeSeed()

// tagOf returns key's tag: the top 31 bits of its hash, never 0.
func tagOf(key []byte) uint32 {
	return max(uint32(maphash.Bytes(hashSeed, key)>>33), 1)
}

// find returns the slot whose node holds key, whose tag is tag, or 0,
// and where that slot is, or the free slot that ends key's probe run.
func (l *List) find(x index, key []byte, tag uint32) (s uint64, i int) {
	mask := len(x) - 1
	for i = int(tag) & mask; ; i = (i + 1) & mask {
		s = x[i].Load()
		if s == 0 {
			return 0, i
		}
		if (s&^linking)>>32 == uint64(tag) && string(l.data(l.node(uint32(s))[nodeKey].Load())) == string(key) {
			return s, i
		}
	}
}

// grow publishes an index twice as long as x, holding x's slots.
// +locked:l.mu
func (l *List) grow(x index) {
	y := make(index, 2*len(x))
	mask := len(y) - 1
	for i := range x {
		s := x[i].Load()
		if s == 0 {
			continue
		}
		j := int(s>>32) & mask
		for y[j].Load() != 0 {
			j = (j + 1) & mask
		}
		y[j].Store(s)
	}
	l.index.Store(&y)
}

// Released lists give their full-size data pages to one free list,
// which new lists take pages from before making any. It keeps at most
// MaxFreePages pages, 64 MiB; pages released beyond that go to the
// collector. Idle pages are live to the collector and raise its heap
// goal, so the cap trades one workload against another: the bench's
// churn workload, twelve replicas flushing 4 MiB memtables, peaked at
// 536 MB RSS with 1024 pages and 541 to 554 MB with 256 (parent 572 to
// 578 MB), while its hot-d1 and hot-d32 workloads, whose closing
// clusters fill the list, peaked at 146 and 186 MB with 1024 against
// 141 and 179 MB with 256 (parent 139 and 181 MB; medians of 5 to 10
// runs on a 2-core box). A list bounded by the pages in use measured
// as 256 did.
const MaxFreePages = 1024

var pagePool struct {
	mu   sync.Mutex
	free [][]byte
	made int64 // full-size data pages ever made
}

// newPage returns a full-size data page, from the free list when it has
// one. A reused page holds its last list's bytes; every byte is written
// before the address that reaches it is published.
func newPage() []byte {
	pagePool.mu.Lock()
	defer pagePool.mu.Unlock()
	if n := len(pagePool.free); n > 0 {
		p := pagePool.free[n-1]
		pagePool.free[n-1] = nil
		pagePool.free = pagePool.free[:n-1]
		return p
	}
	pagePool.made++
	return make([]byte, dataPageSize)
}

// PoolPages reports the full-size data pages ever made and those in the
// free list now.
func PoolPages() (made int64, free int) {
	pagePool.mu.Lock()
	defer pagePool.mu.Unlock()
	return pagePool.made, len(pagePool.free)
}

// Release gives the list's full-size data pages to the free list. The
// owner calls it once, after the last reader is done: every slice the
// list returned is then invalid, and any use of the list panics.
func (l *List) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.dir.Swap(nil)
	if d == nil {
		panic("skiplist: list released twice")
	}
	pagePool.mu.Lock()
	for _, p := range d.data {
		if len(p) == dataPageSize && len(pagePool.free) < MaxFreePages {
			pagePool.free = append(pagePool.free, p)
		}
	}
	pagePool.mu.Unlock()
	l.index.Store(nil)
	l.keys, l.vals = cursor{}, cursor{}
}

// cursor is the free tail of a data page being filled.
type cursor struct {
	page []byte // len is the next free offset
	idx  uint32
}

// ValueRef names a value written into a list's pages by Alloc.
type ValueRef uint32

// New returns an empty list, holding no pages. seed makes tower heights
// deterministic for tests; production callers can pass any value.
func New(seed int64) *List {
	l := &List{}
	l.rng.Seed(uint64(seed), 0)
	l.height.Store(1)
	l.dir.Store(&pages{data: [][]byte{nil}, towers: [][]atomic.Uint32{nil}})
	return l
}

func (l *List) randomHeight() int {
	h, r := 1, l.rng.Uint64()
	for h < maxHeight && r&3 == 0 {
		h++
		r >>= 2
	}
	return h
}

// data returns the key or value at address a, capped so an append by
// the caller cannot reach the bytes after it.
func (l *List) data(a uint32) []byte {
	p := l.dir.Load().data[a>>dataShift][a&dataMask:]
	if n := int(p[0]); n < 0x80 {
		return p[1 : 1+n : 1+n]
	}
	return long(p)
}

// long decodes a length of two or more bytes. It is kept apart so that
// seek can decode the common one-byte length in its own loop, which
// measured faster than calling data.
func long(p []byte) []byte {
	n, w := binary.Uvarint(p)
	return p[w : w+int(n) : w+int(n)]
}

// node returns the slots of the node at reference n, to the end of its
// page.
func (l *List) node(n uint32) []atomic.Uint32 {
	return l.dir.Load().towers[n>>towerShift][n&towerMask:]
}

// seek returns the first node whose key is >= key and whether its key
// equals key. If it does not, prev (when non-nil) is filled with the
// rightmost node before key at every level, where 0 is the head.
//
// seek reads through one directory snapshot, reloaded only when a
// reference points past it: pages are only ever appended.
func (l *List) seek(key []byte, prev *[maxHeight]uint32) (n uint32, found bool) {
	d := l.dir.Load()
	x, xt := uint32(none), l.head[:]
	above := uint32(none) // the node a level above stopped at: known > key
	for lvl := int(l.height.Load()) - 1; lvl >= 0; lvl-- {
		for {
			n = xt[lvl].Load()
			if n == none || n == above {
				break
			}
			if n>>towerShift >= uint32(len(d.towers)) {
				d = l.dir.Load()
			}
			nd := d.towers[n>>towerShift][n&towerMask:]
			a := nd[nodeKey].Load()
			if a>>dataShift >= uint32(len(d.data)) {
				d = l.dir.Load()
			}
			p := d.data[a>>dataShift][a&dataMask:]
			var k []byte
			if kn := int(p[0]); kn < 0x80 {
				k = p[1 : 1+kn]
			} else {
				k = long(p)
			}
			c := bytes.Compare(k, key)
			if c == 0 {
				return n, true
			}
			if c > 0 {
				above = n
				break
			}
			x, xt = n, nd[nodeTower:]
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return n, false
}

// tower returns the next-node slots of node n, 0 being the head.
func (l *List) tower(n uint32) []atomic.Uint32 {
	if n == none {
		return l.head[:]
	}
	return l.node(n)[nodeTower:]
}

// addPage publishes a directory holding one more data or tower page.
// +locked:l.mu
func (l *List) addPage(data []byte, tower []atomic.Uint32) {
	d := *l.dir.Load()
	if data != nil {
		if len(d.data) == maxDataPages {
			panic("skiplist: data pages exhausted")
		}
		d.data = append(d.data, data)
		l.paged.Add(int64(len(data)))
	} else {
		if len(d.towers) == maxTowerPages {
			panic("skiplist: tower pages exhausted")
		}
		d.towers = append(d.towers, tower)
		l.paged.Add(4 * int64(len(tower)))
	}
	l.dir.Store(&d)
}

// allocData writes n's length into c's page (or a page of its own) and
// returns the address and the n bytes that follow, for the caller to
// fill before it publishes the address.
// +locked:l.mu
func (l *List) allocData(c *cursor, n int) (uint32, []byte) {
	need := uvarintLen(n) + n
	if need > bigData {
		p := make([]byte, 0, need)
		if need == dataPageSize { // a full page, which Release can reuse
			p = newPage()[:0]
		}
		p = binary.AppendUvarint(p, uint64(n))
		l.addPage(p[:need], nil)
		return uint32(len(l.dir.Load().data)-1) << dataShift, p[len(p):need:need]
	}
	if c.page == nil || len(c.page)+need > dataPageSize {
		p := newPage()
		l.addPage(p, nil)
		c.idx = uint32(len(l.dir.Load().data) - 1)
		c.page = p[:0]
	}
	off := len(c.page)
	c.page = binary.AppendUvarint(c.page, uint64(n))
	start := len(c.page)
	c.page = c.page[:start+n]
	return c.idx<<dataShift | uint32(off), c.page[start : start+n : start+n]
}

// allocNode returns the reference and slots of a fresh node of height h.
// +locked:l.mu
func (l *List) allocNode(h int) (uint32, []atomic.Uint32) {
	slots := uint32(nodeTower + h)
	if l.towers == nil || l.towerO+slots > towerPageSlots {
		l.towers = make([]atomic.Uint32, towerPageSlots)
		l.addPage(nil, l.towers)
		l.towerN = uint32(len(l.dir.Load().towers) - 1)
		l.towerO = 0
	}
	n := l.towerN<<towerShift | l.towerO
	nd := l.towers[l.towerO : l.towerO+slots]
	l.towerO += slots
	return n, nd
}

func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}

// Alloc reserves n bytes for a value in the list's pages and returns
// them with their reference. The caller fills them and passes the
// reference to Insert; bytes never inserted stay behind as dead bytes
// until the list is released.
func (l *List) Alloc(n int) (ValueRef, []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, b := l.allocData(&l.vals, n)
	return ValueRef(a), b
}

// Insert sets key's value to the one v names, which this list's Alloc
// returned, and returns key as the list's pages hold it. An overwrite
// publishes v with one atomic store; a new key is copied into the list's
// pages.
func (l *List) Insert(key []byte, v ValueRef) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.insert(key, uint32(v))
}

// Put inserts or overwrites key with a copy of value.
func (l *List) Put(key, value []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, b := l.allocData(&l.vals, len(value))
	copy(b, value)
	l.insert(key, a)
}

// insert probes the index once: a hit overwrites the value in place, and
// a miss builds the node, links it (see List) and fills the free slot the
// probe ended at.
// +locked:l.mu
func (l *List) insert(key []byte, v uint32) []byte {
	vlen := len(l.data(v))
	x := l.index.Load()
	if x == nil {
		y := make(index, minSlots)
		x = &y
		l.index.Store(x)
	}
	tag := tagOf(key)
	s, free := l.find(*x, key, tag)
	if s != 0 {
		nd := l.node(uint32(s))
		l.bytes.Add(int64(vlen - len(l.data(nd[nodeValue].Load()))))
		nd[nodeValue].Store(v)
		return l.data(nd[nodeKey].Load())
	}
	h := l.randomHeight()
	k, kb := l.allocData(&l.keys, len(key))
	copy(kb, key)
	n, nd := l.allocNode(h)
	nd[nodeValue].Store(v)
	nd[nodeKey].Store(k)
	s = uint64(tag)<<32 | uint64(n)
	(*x)[free].Store(s | linking)
	var prev [maxHeight]uint32
	l.seek(key, &prev)
	for lvl := int(l.height.Load()); lvl < h; lvl++ {
		prev[lvl] = none
	}
	for lvl := 0; lvl < h; lvl++ {
		nd[nodeTower+lvl].Store(l.tower(prev[lvl])[lvl].Load())
	}
	// Publish bottom-up so readers always see a consistent chain.
	for lvl := 0; lvl < h; lvl++ {
		l.tower(prev[lvl])[lvl].Store(n)
	}
	(*x)[free].Store(s)
	if int32(h) > l.height.Load() {
		l.height.Store(int32(h))
	}
	if l.length.Add(1)*4 > int64(len(*x))*3 {
		l.grow(*x)
	}
	l.bytes.Add(int64(len(key) + vlen))
	return kb
}

// Get returns the value stored under key and whether it was found. The
// slice stays valid until the list is released.
func (l *List) Get(key []byte) ([]byte, bool) {
	x := l.index.Load()
	if x == nil { // empty, or released
		if l.dir.Load() == nil {
			panic("skiplist: use of a released list")
		}
		return nil, false
	}
	s, _ := l.find(*x, key, tagOf(key))
	if s == 0 {
		return nil, false
	}
	if s&linking != 0 {
		if _, linked := l.seek(key, nil); !linked {
			return nil, false
		}
	}
	return l.data(l.node(uint32(s))[nodeValue].Load()), true
}

// Len returns the number of keys in the list.
func (l *List) Len() int { return int(l.length.Load()) }

// Bytes returns the live key and value bytes: what the list would hold
// with no overwritten values.
func (l *List) Bytes() int64 { return l.bytes.Load() }

// PageBytes returns the bytes of every page the list holds: keys, live
// and overwritten values, and nodes.
func (l *List) PageBytes() int64 { return l.paged.Load() }

// Full reports that half of either page directory is in use, so the
// owner should replace the list before an insert runs out of addresses.
func (l *List) Full() bool {
	d := l.dir.Load()
	return len(d.data) >= maxDataPages/2 || len(d.towers) >= maxTowerPages/2
}

// Fits reports whether n entries carrying size key and value bytes in
// all always fit in a list that is not Full. Every data page but the two
// being filled carries at least a quarter page, and every tower page but
// the one being filled all but one node's slots; a key and a value add
// at most 20 bytes of length prefixes, and the caller's records up to 24
// bytes of header.
func Fits(size int64, n int) bool {
	const node = nodeTower + maxHeight
	data := (size+44*int64(n))/bigData + 2
	towers := int64(n)*node/(towerPageSlots-node) + 1
	return data <= maxDataPages/2 && towers <= maxTowerPages/2
}

// Iterator walks the list in ascending key order. It observes a live
// view: entries inserted behind the cursor are not revisited.
type Iterator struct {
	list *List
	nd   []atomic.Uint32 // current node's slots; nil before the first
}

// NewIterator returns an iterator positioned before the first entry.
func (l *List) NewIterator() *Iterator {
	return &Iterator{list: l}
}

// Next advances to the next entry, reporting false at the end.
func (it *Iterator) Next() bool {
	next := &it.list.head[0]
	if it.nd != nil {
		next = &it.nd[nodeTower]
	}
	n := next.Load()
	if n == none {
		return false
	}
	it.nd = it.list.node(n)
	return true
}

// Seek positions the iterator at the first key >= target, reporting
// whether such a key exists. After Seek returns true, Key/Value are
// valid without calling Next.
func (it *Iterator) Seek(target []byte) bool {
	n, _ := it.list.seek(target, nil)
	if n == none {
		return false
	}
	it.nd = it.list.node(n)
	return true
}

// Key returns the current entry's key. Valid only after a successful
// Next or Seek; the slice stays valid until the list is released.
func (it *Iterator) Key() []byte { return it.list.data(it.nd[nodeKey].Load()) }

// Value returns the current entry's value, as of this call. Valid only
// after a successful Next or Seek; the slice stays valid until the list
// is released.
func (it *Iterator) Value() []byte { return it.list.data(it.nd[nodeValue].Load()) }
