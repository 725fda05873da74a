// Package skiplist implements a concurrent ordered map keyed by byte
// strings, used as the LavaStore memtable. Reads proceed without locks
// using atomic loads; writes take a mutex. This matches the memtable
// access pattern: many concurrent readers, serialized writers behind the
// WAL.
//
// Everything the list holds lives in fixed-size pages that contain no
// pointers, so the garbage collector never scans them: keys and values
// in 64 KiB byte pages (a value over a quarter page gets a page of its
// own), nodes in 16 KiB pages of 32-bit slots, each node's tower sized to
// its height. Nodes, keys and values address each other by 32-bit
// offsets. A published page never moves, so a slice returned by Get, Key
// or Value stays valid until the list is released. An overwrite leaves
// the old value in its page; the list is released whole. Release gives
// its full-size data pages to a bounded free list that the next lists
// fill before they make new ones, so the owner calls it only once no
// reader holds a slice of the list.
//
// Beside the towers, a hash index maps each key to its node, so Get and
// an overwrite take one probe of an open-addressed slot table instead of
// a walk; a new key still walks the towers to be linked in order, and
// scans and iterators only ever use the towers. The index is made on
// the first insert, small, doubles at 3/4 load and is dropped by
// Release; like the pages, it holds no pointers. A key becomes visible
// to Get, Seek and iteration at one point, its level-0 link (see List).
package skiplist
