package cache

// entry is one cached key. Its list links live in the entry itself, so
// a lookup reaches the value, the links and the cache's own bookkeeping
// (meta) through the one pointer the map holds, and moving an entry
// allocates nothing.
type entry[M any] struct {
	prev, next *entry[M]
	key        string
	value      []byte
	meta       M
}

// size is what the entry counts against its cache's byte bound.
func (e *entry[M]) size() int64 { return int64(len(e.key) + len(e.value)) }

// lruList is an intrusive doubly linked list of entries, the most
// recently used at the front. root is a sentinel: root.next is the
// front and root.prev the back, so no link is ever nil once init ran.
// A list must not be copied after init.
type lruList[M any] struct {
	root entry[M]
	n    int
}

func (l *lruList[M]) init() { l.root.next, l.root.prev = &l.root, &l.root }

// len returns the number of listed entries.
func (l *lruList[M]) len() int { return l.n }

// back returns the least recently used entry, or nil when empty.
func (l *lruList[M]) back() *entry[M] {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// pushFront links e, which is in no list, at the front.
func (l *lruList[M]) pushFront(e *entry[M]) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
	l.n++
}

// remove unlinks e, which is in l.
func (l *lruList[M]) remove(e *entry[M]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// moveToFront makes e, which is in l, the most recently used.
func (l *lruList[M]) moveToFront(e *entry[M]) {
	if l.root.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
}
