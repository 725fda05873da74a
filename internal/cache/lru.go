package cache

// entry is one cached key of either cache. Its list links live in the
// entry itself, so listing an entry allocates nothing. What a hit reads
// is in the entry's index slot (see slot); the entry keeps what its
// list, its slot's moves, a fill's victim comparison and a refresh
// need. TestEntrySizes pins it at 48 bytes.
type entry struct {
	prev, next *entry
	key        string
	// gen identifies the AU-LRU store that put the slot's value. A
	// refresh reads the origin outside the lock; it installs what it
	// read only if the entry still carries the generation it started
	// from, so a write-through that lands meanwhile is never replaced
	// by the older origin value.
	gen uint64
	// slot is where the entry sits in its shard's index. Moving a slot
	// (growth, a deletion's backward shift) updates it.
	slot uint32
	// class is the SA-LRU size class the entry is listed and counted in.
	class uint8
	// refreshing is set while an AU-LRU refresh of the entry reads the
	// origin, so at most one is in flight per entry.
	refreshing bool
}

// clockList is a CLOCK queue of entries in insertion order, an
// intrusive doubly linked list with the oldest entry at the front,
// where the hand points. Eviction is second chance: the hand clears a
// visited front entry and moves it to the back, and evicts the first
// entry it finds unvisited. A hit never moves an entry. root is a
// sentinel: root.next is the front and root.prev the back, so no link
// is ever nil once init ran. A list must not be copied after init.
type clockList struct {
	root entry
	n    int
}

func (l *clockList) init() { l.root.next, l.root.prev = &l.root, &l.root }

// len returns the number of listed entries.
func (l *clockList) len() int { return l.n }

// pushBack links e, which is in no list, at the back: the hand reaches
// it after every entry already listed.
func (l *clockList) pushBack(e *entry) {
	e.prev, e.next = l.root.prev, &l.root
	e.prev.next, e.next.prev = e, e
	l.n++
}

// remove unlinks e, which is in l.
func (l *clockList) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	l.n--
}

// victim moves the hand to the entry eviction takes next and returns
// it, or nil when empty: each visited entry the hand passes loses the
// bit in its slot of x, the index of l's entries, and goes to the back.
// It ends within one round, since by then every bit is clear.
func (l *clockList) victim(x *index) *entry {
	for e := l.root.next; e != &l.root; e = l.root.next {
		sl := &x.slots[e.slot]
		if !sl.visited {
			return e
		}
		sl.visited = false
		l.remove(e)
		l.pushBack(e)
	}
	return nil
}
