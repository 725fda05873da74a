package cache

// entry is one cached key. Its list links live in the entry itself, so
// a lookup reaches the value, the links and the cache's own bookkeeping
// (meta) through the one pointer the map holds, and listing an entry
// allocates nothing.
type entry[M any] struct {
	prev, next *entry[M]
	key        string
	value      []byte
	meta       M
	// visited is CLOCK's reference bit: a hit or a write sets it, the
	// hand clears it.
	visited bool
	// hot is the AU-LRU's flag that the entry was hit since its value
	// was stored: it makes the entry eligible for an active update and
	// lets it stand against a fill that would evict it. The SA-LRU
	// leaves it false. The two flags share the word after meta, so neither cache's
	// entry outgrows the heap size class it took before the bit
	// (TestEntrySizes).
	hot bool
}

// size is what the entry counts against its cache's byte bound.
func (e *entry[M]) size() int64 { return int64(len(e.key) + len(e.value)) }

// touch records a hit. It writes the bit only when it is clear, so a
// hot entry's steady-state hit writes nothing and its cache line stays
// shared between the cores that read it.
func (e *entry[M]) touch() {
	if !e.visited {
		e.visited = true
	}
}

// clockList is a CLOCK queue of entries in insertion order, an
// intrusive doubly linked list with the oldest entry at the front,
// where the hand points. Eviction is second chance: the hand clears a
// visited front entry and moves it to the back, and evicts the first
// entry it finds unvisited. A hit never moves an entry. root is a
// sentinel: root.next is the front and root.prev the back, so no link
// is ever nil once init ran. A list must not be copied after init.
type clockList[M any] struct {
	root entry[M]
	n    int
}

func (l *clockList[M]) init() { l.root.next, l.root.prev = &l.root, &l.root }

// len returns the number of listed entries.
func (l *clockList[M]) len() int { return l.n }

// pushBack links e, which is in no list, at the back: the hand reaches
// it after every entry already listed.
func (l *clockList[M]) pushBack(e *entry[M]) {
	e.prev, e.next = l.root.prev, &l.root
	e.prev.next, e.next.prev = e, e
	l.n++
}

// remove unlinks e, which is in l.
func (l *clockList[M]) remove(e *entry[M]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// victim moves the hand to the entry eviction takes next and returns
// it, or nil when empty: each visited entry the hand passes loses its
// bit and goes to the back. It ends within one round, since by then
// every bit is clear.
func (l *clockList[M]) victim() *entry[M] {
	if l.n == 0 {
		return nil
	}
	for e := l.root.next; e.visited; e = l.root.next {
		e.visited = false
		l.remove(e)
		l.pushBack(e)
	}
	return l.root.next
}
