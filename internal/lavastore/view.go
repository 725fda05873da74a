package lavastore

import (
	"slices"
	"sync/atomic"

	"abase/internal/skiplist"
)

// view is one snapshot of the engine's layers: the live memtable, the
// immutable memtables awaiting flush, oldest first, and the tables,
// newest first. A view is never written in place (the live memtable
// takes inserts, but the view holds the same list until a freeze
// installs a new one); a flush or a compaction installs a new one. A
// reader acquires the current view under db.mu and reads it after
// dropping the lock, so a table that a compaction swaps out must stay
// open, and a memtable that a flush retires must keep its pages out of
// the free list, until every reader of every view holding it is done.
type view struct {
	mem    *skiplist.List
	imm    []*skiplist.List
	tables []*Table
	*viewRef
}

// viewRef is a view's one reference count. Its holders are the DB while
// the view is current, each reader that acquired the view (a point read,
// a scanner, or a commit's Pin that a replication message carries), and
// the count of the view it replaced, which holds this one through next.
// So a count reaches zero only once every older view's has, and then the
// memtables and tables its view held that the next view does not have
// no reader left: they are dropTables and dropLists, and they close. The
// chain links counts, not views, so a reader that holds an old view
// references none of a newer view's layers, though it does hold back
// their release. The last view's layers close when the DB is closed and
// its last reader is done.
type viewRef struct {
	refs       atomic.Int32
	next       *viewRef         // the next view's count; nil while current
	dropTables []*Table         // set when the view is replaced or the DB closed
	dropLists  []*skiplist.List // likewise; their pages go back to the free list
}

// installLocked makes a view of mem, imm and tables, the last two fresh
// slices, the current one.
// +locked:db.mu
func (db *DB) installLocked(mem *skiplist.List, imm []*skiplist.List, tables []*Table) {
	v := &view{mem: mem, imm: imm, tables: tables, viewRef: &viewRef{}}
	v.refs.Store(1) // the DB's
	old := db.v
	db.v = v
	if old != nil {
		v.refs.Add(1) // old's link
		for _, t := range old.tables {
			if !slices.Contains(tables, t) {
				old.dropTables = append(old.dropTables, t)
			}
		}
		for _, l := range old.lists() {
			if l != mem && !slices.Contains(imm, l) {
				old.dropLists = append(old.dropLists, l)
			}
		}
		old.next = v.viewRef
		old.release() // the DB's, moved to v
	}
}

// lists returns a fresh slice of the view's memtables.
func (v *view) lists() []*skiplist.List {
	return append(slices.Clone(v.imm), v.mem)
}

// acquireLocked returns the current view with a reference for the
// caller, who releases it when done reading.
// +locked:db.mu
func (db *DB) acquireLocked() *view {
	v := db.v
	v.refs.Add(1)
	return v
}

// release drops one reference. The last one closes the tables and
// releases the memtables the view dropped, and drops the link to the
// next view's count.
func (r *viewRef) release() {
	for ; r != nil && r.refs.Add(-1) == 0; r = r.next {
		for _, t := range r.dropTables {
			t.Close()
		}
		for _, l := range r.dropLists {
			l.Release()
		}
	}
}

// Pin keeps the memtable pages that a Commit reported its ops in from
// reuse. Release it once; the zero Pin holds nothing.
type Pin struct{ r *viewRef }

// Release lets the pages go.
func (p Pin) Release() { p.r.release() }

// Share adds n references to p, one for each further holder, who
// releases it on its own. The caller holds p, so the count is at least 1.
func (p Pin) Share(n int) {
	if p.r != nil {
		p.r.refs.Add(int32(n))
	}
}
