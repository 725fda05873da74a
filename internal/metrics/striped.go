package metrics

import (
	"runtime"
	_ "unsafe" // go:linkname of the runtime's P pinning
)

// Striped is a cell of type T kept once per P (the scheduler's logical
// processor), up to maxStripes cells: a writer updates the cell of the P
// it runs on, so writers on different cores write different cache lines
// (past maxStripes Ps, a few Ps share each cell), and a reader visits
// every cell and adds them up. T is a struct of Counter, Gauge and
// Histogram fields, all atomics: a goroutine can move to another P
// between taking its cell and writing it, so a cell is seldom shared,
// not private. Striped is what a per-request tally uses when the
// requests of several cores would otherwise all write one word.
type Striped[T any] struct {
	cells []stripe[T]
}

// stripe is one cell, padded so that no other cell's fields share its
// cache lines.
type stripe[T any] struct {
	v T
	_ [64]byte
}

// maxStripes caps the cells of a Striped: a tally kept per tenant holds
// a latency histogram in every cell, so past this many cores, cores
// share cells rather than the tally growing with the core count.
const maxStripes = 8

// NewStriped returns a Striped with one zero cell per P, up to
// maxStripes cells.
func NewStriped[T any]() *Striped[T] {
	return &Striped[T]{cells: make([]stripe[T], min(runtime.GOMAXPROCS(0), maxStripes))}
}

// Cell returns the cell of the P the caller runs on.
func (s *Striped[T]) Cell() *T {
	p := procPin()
	procUnpin()
	return &s.cells[uint(p)%uint(len(s.cells))].v
}

// Each calls f with every cell.
func (s *Striped[T]) Each(f func(*T)) {
	for i := range s.cells {
		f(&s.cells[i].v)
	}
}

// procPin and procUnpin are the runtime's, as sync.Pool uses them:
// procPin returns the id of the caller's P.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// Requests is one plane's per-request tally — a proxy's, or one
// tenant's on a DataNode — as the cell of a Striped.
type Requests struct {
	Success Counter
	// Refused counts requests the plane's quota turned away.
	Refused Counter
	// Shed counts requests refused by deadline-aware admission.
	Shed   Counter
	Errors Counter
	// Hits and Misses count the plane's cache lookups.
	Hits   Counter
	Misses Counter
	// RU is the request units the requests were billed; who resets it
	// is the owner's choice (a proxy's is a window traffic control
	// takes), so Reset leaves it alone.
	RU      Gauge
	Latency Histogram
}

// Reset zeroes the counts and the latency histogram, but not RU.
func (r *Requests) Reset() {
	for _, c := range []*Counter{&r.Success, &r.Refused, &r.Shed, &r.Errors, &r.Hits, &r.Misses} {
		c.Reset()
	}
	r.Latency.Reset()
}

// SumRequests adds up every cell of s: the counts and RU summed, the
// latency histograms merged.
func SumRequests(s *Striped[Requests]) *Requests {
	t := new(Requests)
	s.Each(func(c *Requests) {
		t.Success.Add(c.Success.Value())
		t.Refused.Add(c.Refused.Value())
		t.Shed.Add(c.Shed.Value())
		t.Errors.Add(c.Errors.Value())
		t.Hits.Add(c.Hits.Value())
		t.Misses.Add(c.Misses.Value())
		t.RU.Add(c.RU.Value())
		t.Latency.Merge(&c.Latency)
	})
	return t
}
