package datanode

import (
	"context"
	"errors"
	"sync"
	"time"

	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// stages is the operation-specific half of a unit: what a request does
// once the shared pipeline (run) has admitted, charged and scheduled
// it. Every client-facing operation is one implementation; the op
// struct embeds its unit, so a request is a single heap object.
type stages interface {
	// arrive records the request's arrival at now: its offered load on
	// its replica (heat) and, for a write, the instant its TTLs count
	// from. It runs at arrival, before admission — including the
	// deadline shed — so the control plane sees the load a partition
	// sheds or throttles away: that partition is exactly the one that
	// needs a split.
	arrive(now time.Time)
	// cpu is the CPU-WFQ stage after the common CPU burn; it reports
	// whether the request missed the node cache and must go on to the
	// I/O-WFQ.
	cpu() (needIO bool)
	// io is the I/O-WFQ stage.
	io()
	// settle runs on the caller's goroutine once the stages have run:
	// it turns their result into billed RU, estimator observations and
	// tenant counters, and sets the unit's err for a stage-level
	// failure (absent key, engine error).
	settle()
}

// unit is one request in flight through the isolation pipeline: the
// replica and tenant it is accounted to, what admission charges for it,
// which WFQ it queues in, and — through op — its stages. It owns the
// request's wfq.Task, done signal and outcome.
type unit struct {
	n   *Node
	op  stages
	rep *replica
	ts  *tenantStats
	est *ru.Estimator

	class wfq.Class
	cost  float64 // RU charged at admission; also the CPU-WFQ cost
	iops  float64 // I/O-WFQ cost

	task wfq.Task
	// charged flips once the partition limiter admits the unit; a unit
	// dropped after that point never executes, so the RU goes back.
	// Written before the unit reaches the WFQ and read only from there
	// on, so it is ordered.
	charged bool
	err     error         // why the stages did not run, or the stage failure settle reported
	lat     time.Duration // request latency, set by run
	billed  float64       // RU the served request really cost, set by bill
	done    sync.WaitGroup
	// fns are the unit's stage, completion and drop funcs, bound to it
	// once (see bind) and copied into task by run: binding a method
	// value allocates, and a pooled op keeps its bindings across uses.
	fns stageFns
}

type stageFns struct {
	cpu   func() bool
	io    func()
	done  func()
	abort func(error)
}

// bind binds u's funcs, op being the op that embeds u.
func (u *unit) bind(op stages) {
	u.fns = stageFns{cpu: u.cpuStage, io: op.io, done: u.done.Done, abort: u.drop}
}

// place resolves the replica and tenant state a new unit is accounted
// to. Writes are fenced here, before any accounting: a demoted primary
// must reject the write outright so the proxy re-routes to the new one.
func (n *Node) place(u *unit, op stages, pid partition.ID, write bool, epoch uint64) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	if write {
		if err := rep.checkWrite(epoch); err != nil {
			return err
		}
	}
	u.n, u.op, u.rep = n, op, rep
	u.ts, u.est = rep.ts, rep.ts.est
	if u.fns.cpu == nil {
		u.bind(op)
	}
	return nil
}

func (u *unit) cpuStage() bool {
	burn(u.n.cfg.Clock, u.n.cfg.Cost.CPUTime)
	return u.op.cpu()
}

// drop resolves a unit whose stages will never run — canceled in a
// queue, refused by the partition quota, or turned away by a closed
// scheduler — returning whatever admission charged for it.
func (u *unit) drop(err error) {
	if u.charged {
		u.rep.limiter.Refund(u.cost)
	}
	u.err = err
	u.done.Done()
}

// fail records a stage-level failure from settle.
func (u *unit) fail(err error) {
	u.ts.reqs.Cell().Errors.Inc()
	u.err = err
}

// bill records what a served unit actually cost.
func (u *unit) bill(charged float64) {
	u.billed = charged
	c := u.ts.reqs.Cell()
	c.RU.Add(charged)
	c.Latency.Observe(u.lat)
}

// run is the DataNode's one request pipeline (§4.1–4.3): every unit is
// checked against ctx and the deadline-aware front door, the units
// take the request queue's admission step ONCE together (one AdmitCost,
// one queue slot — a node batch is one network request), each is
// charged against its own partition quota and fair-queued as one WFQ
// task, and the outcome is settled to what the request really cost. A
// point operation is a run of one unit. The admission step runs on the
// caller's goroutine, after it waits for a slot if none is free; a WFQ
// stage runs there too when its turn is free — nothing queued ahead and
// a slot open — and waits for a worker otherwise. ctx bounds the request
// end to end: done at arrival it fails fast before any admission, a
// cancel while the request waits for an admission slot ends the wait at
// once, and a cancel while a unit waits in a WFQ drops it at the next
// dequeue point without executing. start, read once at arrival, is the
// "now" of everything the request does before it completes.
func (n *Node) run(ctx context.Context, units []*unit) {
	start := n.cfg.Clock.Now()
	admitted := false
	for _, u := range units {
		if u.err = ctx.Err(); u.err != nil {
			continue // the caller is gone: not offered load
		}
		u.op.arrive(start)
		if u.err = n.admitCtx(ctx, u.ts); u.err != nil {
			continue
		}
		u.task = wfq.Task{
			Tenant:     u.rep.id.Partition.Tenant,
			Partition:  u.rep.part,
			Class:      u.class,
			RUCost:     u.cost,
			IOPSCost:   u.iops,
			QuotaShare: n.quotaShare(u.rep),
			Ctx:        ctx,
			CPUStage:   u.fns.cpu,
			IOStage:    u.fns.io,
			Done:       u.fns.done,
			Abort:      u.fns.abort,
		}
		u.done.Add(1)
		admitted = true
	}
	// Request-queue stage: quota filtering happens here, so a flood of
	// over-quota traffic occupies the admission slots (Figure 6). Units
	// refused at arrival carry an err already and are skipped. A request
	// that never gets a slot — the queue is full, the node is closing, or
	// the caller left while it waited — resolves its units with why,
	// having burned no admit cost and charged no quota.
	var qerr error
	if admitted {
		qerr = n.admit.enter(ctx)
	}
	entered := admitted && qerr == nil
	var lat time.Duration
	if entered {
		n.visits.Cell().Inc()
		n.admitStep(ctx, units, start)
		n.admit.leave()
		n.dispatch(units)
		for _, u := range units {
			u.done.Wait()
		}
		lat = n.cfg.Clock.Since(start)
		n.observeServiceTime(lat)
	}
	for _, u := range units {
		if !entered && u.err == nil {
			u.err = qerr
		}
		u.lat = lat
		switch {
		case u.err == nil:
			u.op.settle()
		case errors.Is(u.err, ErrThrottled):
			u.ts.reqs.Cell().Refused.Inc()
		case isCtxErr(u.err):
			// The caller left (or was shed, counted at the front
			// door); the service didn't fail.
		default:
			u.ts.reqs.Cell().Errors.Inc()
		}
	}
}

// admitStep is the request queue's work on one request, done in an
// admission slot. A request canceled while it queued drops every unit
// before spending admit cost or quota; otherwise the admit cost is
// burned once for the request and each unit is charged against its own
// partition quota at the request's arrival time now, a refusal burning
// RejectCost.
func (n *Node) admitStep(ctx context.Context, units []*unit, now time.Time) {
	cerr := ctx.Err()
	if cerr == nil {
		burn(n.cfg.Clock, n.cfg.AdmitCost)
	}
	for _, u := range units {
		if u.err != nil {
			continue
		}
		if cerr != nil {
			u.drop(cerr)
			continue
		}
		if !u.rep.limiter.Allow(u.cost, now) {
			burn(n.cfg.Clock, n.cfg.RejectCost)
			u.drop(ErrThrottled)
			continue
		}
		u.charged = true
	}
}

// dispatch hands the units that passed admission to the WFQ. Every unit
// but the last is submitted to the workers, so a batch's units still run
// in parallel, and the last takes its turn on the caller if it is free
// (wfq Run).
func (n *Node) dispatch(units []*unit) {
	last := -1
	for i := len(units) - 1; i >= 0; i-- {
		if units[i].err == nil {
			last = i
			break
		}
	}
	for i, u := range units {
		if u.err != nil {
			continue
		}
		var ok bool
		if i == last {
			ok = n.sched.Run(&u.task)
		} else {
			ok = n.sched.Submit(&u.task)
		}
		if !ok {
			u.drop(ErrClosed)
		}
	}
}

// isCtxErr reports whether err is a context sentinel (including the
// shed error, which wraps context.DeadlineExceeded): the caller's
// budget ran out, as opposed to the node failing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
