package datanode

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"abase/internal/clock"
)

// ErrOverloaded is returned when the DataNode request queue is full:
// arriving traffic (including traffic that would be rejected by quota)
// exceeds the queue's drain rate. This is the failure mode Figure 6
// shows when a tenant's burst is not intercepted at the proxy.
var ErrOverloaded = errors.New("datanode: request queue overloaded")

// Admission models the DataNode request queue (§4.2): every arriving
// request takes an admission step in one of a few slots — it spends
// AdmitCost (parse + route), checks the partition quota, and spends
// RejectCost on each rejection (see Node.admitStep) — so a flood of
// over-quota traffic consumes real node resources and delays co-tenants,
// unless the proxy intercepts it first. The queue has no workers: a
// request takes its step on its caller's goroutine, at once when a slot
// is free, and otherwise waits for one in a bounded FIFO — callers
// blocked sending on a Go channel (in a select or not) are served in the
// order they blocked, and a freed slot passes straight to the first of
// them. A caller whose ctx ends while it waits leaves the queue at once.
type admission struct {
	closed atomic.Bool
	// slots holds one token per request in its admission step; its
	// capacity is the slot count.
	slots chan struct{}
	// pending counts the requests waiting for a slot: the queue's depth,
	// bounded at limit.
	pending atomic.Int64
	limit   int64
}

const (
	defaultAdmitWorkers  = 2
	defaultAdmitQueueCap = 1024
)

func newAdmission(slots, queueCap int) *admission {
	if slots <= 0 {
		slots = defaultAdmitWorkers
	}
	if queueCap <= 0 {
		queueCap = defaultAdmitQueueCap
	}
	return &admission{slots: make(chan struct{}, slots), limit: int64(queueCap)}
}

// enter takes an admission slot for the caller, waiting behind the
// requests that wait already. It fails with ErrOverloaded when the queue
// is full or the node is shutting down, and with ctx's error when the
// caller gives up while it waits. The caller leaves once its step is
// done.
func (a *admission) enter(ctx context.Context) error {
	if a.closed.Load() {
		return ErrOverloaded
	}
	// A free slot is taken at once. A slot is free only while no one
	// waits: the receive in leave hands a freed slot straight to the
	// first waiter, so this never overtakes the queue.
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.pending.Add(1) > a.limit {
		a.pending.Add(-1)
		return ErrOverloaded
	}
	defer a.pending.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// leave releases an admission slot.
func (a *admission) leave() { <-a.slots }

// depth returns the number of requests waiting for a slot — one input to
// the deadline-shedding wait estimate.
func (a *admission) depth() int { return int(a.pending.Load()) }

// close turns new arrivals away; requests already waiting still take
// their step.
func (a *admission) close() { a.closed.Store(true) }

// burn consumes d of simulated service time by occupying the calling
// goroutine and the slot it holds. Sleeping (rather than spinning) keeps
// the model faithful on small hosts: an admission slot or a WFQ slot is
// unavailable for other requests while it "serves" one, which is what
// creates queueing — without monopolizing the machine's real cores.
func burn(clk clock.Clock, d time.Duration) {
	// A zero cost is no cost. Sub-microsecond costs are free too, for
	// the frozen bench/ configuration, which states its costs as 1ns.
	if d < time.Microsecond {
		return
	}
	clk.Sleep(d)
}
