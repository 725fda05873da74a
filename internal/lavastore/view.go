package lavastore

import (
	"slices"
	"sync/atomic"

	"abase/internal/skiplist"
)

// view is one snapshot of the layers below the live memtable: the
// immutable memtables awaiting flush, oldest first, and the tables,
// newest first. A view is never written in place; a flush or a
// compaction installs a new one. A reader acquires the current view
// under db.mu and reads it after dropping the lock, so a table that a
// compaction swaps out must stay open until every reader of every view
// holding it is done.
type view struct {
	imm    []*skiplist.List
	tables []*Table
	*viewRef
}

// viewRef is a view's one reference count. Its holders are the DB while
// the view is current, each reader that acquired the view, and the
// count of the view it replaced, which holds this one through next. So
// a count reaches zero only once every older view's has, and then the
// tables its view held that the next view does not have no reader left:
// they are drop, and they close. The chain links counts, not views, so
// a reader that holds an old view keeps no newer view's memtables alive.
// The last view's tables close when the DB is closed and its last
// reader is done.
type viewRef struct {
	refs atomic.Int32
	next *viewRef // the next view's count; nil while current
	drop []*Table // set when the view is replaced or the DB closed
}

// installLocked makes a view of imm and tables, both fresh slices, the
// current one.
// +locked:db.mu
func (db *DB) installLocked(imm []*skiplist.List, tables []*Table) {
	v := &view{imm: imm, tables: tables, viewRef: &viewRef{}}
	v.refs.Store(1) // the DB's
	old := db.v
	db.v = v
	if old != nil {
		v.refs.Add(1) // old's link
		for _, t := range old.tables {
			if !slices.Contains(tables, t) {
				old.drop = append(old.drop, t)
			}
		}
		old.next = v.viewRef
		old.release() // the DB's, moved to v
	}
}

// acquireLocked returns the current view with a reference for the
// caller, who releases it when done reading.
// +locked:db.mu
func (db *DB) acquireLocked() *view {
	v := db.v
	v.refs.Add(1)
	return v
}

// release drops one reference. The last one closes the tables in drop
// and drops the link to the next view's count.
func (r *viewRef) release() {
	for ; r != nil && r.refs.Add(-1) == 0; r = r.next {
		for _, t := range r.drop {
			t.Close()
		}
	}
}
