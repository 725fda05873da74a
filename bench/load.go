package main

import (
	"fmt"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"time"
)

// Span layers and ops, as written to the trace files.
var layerNames = []string{"lavastore", "datanode", "proxy", "client", "server"}

const (
	layerLavastore = iota
	layerDatanode
	layerProxy
	layerClient
	layerServer
)

// span is one timed call into a layer. idx is the op's position in its
// connection's stream; start and end are nanoseconds since the trace
// began. ladder marks the one-caller replay, as against the traced
// window's two connections.
type span struct {
	layer  uint8
	set    bool
	ladder bool
	conn   uint8
	idx    uint32
	start  int64
	end    int64
}

// latencies are the samples of one driven interval, in nanoseconds.
type latencies struct{ get, set []uint32 }

// clampNs stores a duration as uint32 nanoseconds: 4.29 s at most.
func clampNs(d time.Duration) uint32 { return uint32(min(int64(d), math.MaxUint32)) }

func (l *latencies) add(set bool, d time.Duration) {
	if set {
		l.set = append(l.set, clampNs(d))
	} else {
		l.get = append(l.get, clampNs(d))
	}
}

// pending is one command written and not yet answered.
type pending struct {
	idx    uint32
	set    bool
	expect uint64 // for a GET: the sequence its reply must carry
	pos    uint32 // stream position, the span's idx
}

// loadConn is one generator: a connection, its op stream and what it
// has written so far.
type loadConn struct {
	id     uint8
	conn   net.Conn
	scan   *replyScanner
	vals   *values
	stream []uint32
	pos    int
	depth  int
	open   bool // runs the open loop (the aggressor)

	seq    uint64
	expect []uint64 // last sequence sent per key; 0 is the preload
	// exact is false when other writers share the keys (the ladder's
	// lower rungs write below the proxy cache), so only key, length,
	// checksum and fill are checked.
	exact bool

	wbuf []byte
	pend []pending

	attempted int64
	ok        int64
	failed    int64
	firstErr  error

	// Open loop only.
	admitted int64
	refused  int64
	lateNs   []uint32 // how late each tick was sent
	written  []bool   // keys with at least one admitted SET

	traceBase time.Time // zero: no spans
	spans     []span
}

func newLoadConn(id int, conn net.Conn, vals *values, stream []uint32, keys, depth int) *loadConn {
	return &loadConn{
		id: uint8(id), conn: conn, scan: newReplyScanner(conn), vals: vals,
		stream: stream, depth: depth, exact: true,
		expect:  make([]uint64, keys),
		written: make([]bool, keys),
		pend:    make([]pending, depth),
	}
}

// distinctWritten counts the keys the open loop has stored.
func (c *loadConn) distinctWritten() int {
	n := 0
	for _, w := range c.written {
		if w {
			n++
		}
	}
	return n
}

func (c *loadConn) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// encode appends the next n stream ops to the write buffer.
func (c *loadConn) encode(n int) {
	c.wbuf = c.wbuf[:0]
	for j := 0; j < n; j++ {
		op := c.stream[c.pos]
		p := pending{idx: op &^ setBit, set: op&setBit != 0, pos: uint32(c.pos)}
		c.pos++
		if c.pos == len(c.stream) {
			c.pos = 0
		}
		if p.set {
			c.seq++
			c.expect[p.idx] = c.seq
			c.wbuf = c.vals.appendSet(c.wbuf, p.idx, c.seq)
		} else {
			p.expect = c.expect[p.idx]
			c.wbuf = appendGet(c.wbuf, p.idx)
		}
		c.pend[j] = p
	}
}

// verify checks one reply against the command that caused it.
func (c *loadConn) verify(p pending, kind replyKind, body []byte) error {
	if p.set {
		if kind != replyOK {
			return fmt.Errorf("SET key %d: reply kind %d %q", p.idx, kind, body)
		}
		return nil
	}
	if kind != replyBulk {
		return fmt.Errorf("GET key %d: reply kind %d %q", p.idx, kind, body)
	}
	seq, err := c.vals.check(body, p.idx)
	if err != nil {
		return fmt.Errorf("GET key %d: %w", p.idx, err)
	}
	if c.exact && seq != p.expect {
		return fmt.Errorf("GET key %d: sequence %d, want %d", p.idx, seq, p.expect)
	}
	return nil
}

// runClosed is the closed loop: write depth commands, read their
// replies, repeat. It stops after maxOps commands (when positive) or
// once a batch would start after start+dur (when positive). A command's
// latency runs from its batch's write to its own verified reply. An
// I/O error ends the run and is returned.
func (c *loadConn) runClosed(start time.Time, dur time.Duration, maxOps int, lat *latencies) error {
	issued := 0
	for {
		n := c.depth
		if maxOps > 0 {
			if n > maxOps-issued {
				n = maxOps - issued
			}
			if n == 0 {
				break
			}
		}
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		c.encode(n)
		t0 := time.Now()
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return err
		}
		issued += n
		c.attempted += int64(n)
		for j := 0; j < n; j++ {
			kind, body, err := c.scan.next()
			if err != nil {
				return err
			}
			t := time.Now()
			p := c.pend[j]
			if err := c.verify(p, kind, body); err != nil {
				c.fail(err)
				continue
			}
			c.ok++
			if lat != nil {
				lat.add(p.set, t.Sub(t0))
			}
			if !c.traceBase.IsZero() {
				c.spans = append(c.spans, span{
					layer: layerServer, set: p.set, conn: c.id, idx: p.pos,
					start: int64(t0.Sub(c.traceBase)), end: int64(t.Sub(c.traceBase)),
				})
			}
		}
	}
	return nil
}

// runOpen is the open loop: every tick it owes perTick commands, sent
// as one pipelined batch, and a batch that could not be sent on time
// is sent as soon as possible and its lateness recorded. It stops at
// start+dur, or when stop is set. Replies are +OK (admitted) or
// -THROTTLED (refused); anything else is a failure.
func (c *loadConn) runOpen(start time.Time, dur time.Duration, stop *atomic.Bool) error {
	for k := 0; ; k++ {
		due := time.Duration(k) * aggressorTick
		now := time.Now()
		if wait := due - now.Sub(start); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		if (dur > 0 && now.Sub(start) >= dur) || stop.Load() {
			break
		}
		c.lateNs = append(c.lateNs, clampNs(now.Sub(start)-due))
		c.encode(aggressorPerTick)
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return err
		}
		c.attempted += aggressorPerTick
		for j := 0; j < aggressorPerTick; j++ {
			kind, body, err := c.scan.next()
			if err != nil {
				return err
			}
			switch kind {
			case replyOK:
				c.admitted++
				c.written[c.pend[j].idx] = true
			case replyThrottled:
				c.refused++
			default:
				c.fail(fmt.Errorf("aggressor SET key %d: reply kind %d %q", c.pend[j].idx, kind, body))
			}
		}
	}
	return nil
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// median of a small float slice (copied, so the caller's order stays).
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
