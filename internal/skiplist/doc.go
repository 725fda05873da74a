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
package skiplist
