package cache

// entry is one cached key. Its list links live in the entry itself, so
// listing an entry allocates nothing. meta is the cache's own: the
// SA-LRU keeps there the value, the size class and the CLOCK bit its
// hits set (saMeta); the AU-LRU keeps those in its index slot (auSlot)
// and here only what its list and a refresh need (auMeta).
type entry[M any] struct {
	prev, next *entry[M]
	key        string
	meta       M
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
// bit and goes to the back. bit returns a listed entry's visited bit,
// which each cache keeps where its hits set it. It ends within one
// round, since by then every bit is clear.
func (l *clockList[M]) victim(bit func(*entry[M]) *bool) *entry[M] {
	for e := l.root.next; e != &l.root; e = l.root.next {
		visited := bit(e)
		if !*visited {
			return e
		}
		*visited = false
		l.remove(e)
		l.pushBack(e)
	}
	return nil
}
