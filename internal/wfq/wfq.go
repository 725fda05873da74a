package wfq

import (
	"container/heap"
	"context"
	"sync/atomic"
)

// Class categorizes a request by type and size into one of the four
// independent dual-layer WFQs.
type Class int

// Request classes.
const (
	SmallRead Class = iota
	LargeRead
	SmallWrite
	LargeWrite
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case SmallRead:
		return "SmallRead"
	case LargeRead:
		return "LargeRead"
	case SmallWrite:
		return "SmallWrite"
	case LargeWrite:
		return "LargeWrite"
	}
	return "Unknown"
}

// ClassFor picks the WFQ class for a request. sizeBytes is the value
// size (estimated for reads); the small/large boundary is 4 KiB.
func ClassFor(write bool, sizeBytes int) Class {
	large := sizeBytes > 4096
	switch {
	case write && large:
		return LargeWrite
	case write:
		return SmallWrite
	case large:
		return LargeRead
	default:
		return SmallRead
	}
}

// IsWrite reports whether the class is a write class.
func (c Class) IsWrite() bool { return c == SmallWrite || c == LargeWrite }

// Task is one request flowing through a dual-layer WFQ.
type Task struct {
	Tenant    string
	Partition string
	Class     Class
	// RUCost is the CPU-layer cost (Rule 1).
	RUCost float64
	// IOPSCost is the I/O-layer cost charged if the CPU stage misses
	// the cache (Rule 1).
	IOPSCost float64
	// QuotaShare is wPartition: the request's partition quota divided
	// by the sum of partition quotas on the DataNode. Must be in (0,1].
	QuotaShare float64
	// CPUStage runs under the CPU-WFQ. It returns true when the request
	// missed the cache and must proceed to the I/O-WFQ.
	CPUStage func() (needIO bool)
	// IOStage runs under the I/O-WFQ after a cache miss.
	IOStage func()
	// Done is invoked exactly once when the task fully completes.
	Done func()
	// Ctx, when non-nil, bounds the task's time in the queues: a worker
	// that dequeues a task whose context is already done skips its
	// remaining stages and invokes Abort (or Done when Abort is nil)
	// instead — a canceled or deadline-expired request sheds its queued
	// work rather than being served to a caller that is gone.
	Ctx context.Context
	// Abort is invoked exactly once, instead of Done, with Ctx.Err()
	// when the task is dropped at a dequeue point because Ctx was done.
	Abort func(err error)

	// flow is Tenant's state in the layer the task was submitted to,
	// bound at Submit or TryRun: every later step keeps its books there.
	flow *flow
	vft  float64
	idx  int
}

// shed checks Ctx at a dequeue point: a non-nil error means the
// context is done and the worker must skip the task's stages, release
// what the task holds, and then resolve it with the error.
func (t *Task) shed() error {
	if t.Ctx == nil {
		return nil
	}
	return t.Ctx.Err()
}

// flow is one tenant's state in one dual-layer WFQ: the virtual finish
// time it reached in each layer, how many of its tasks each layer's
// queue holds, and the CPU and basic I/O slots its tasks hold. Its
// DualLayer's mu guards it, except cpu (see DualLayer.releaseCPU).
type flow struct {
	preVFT [numLayers]float64
	queued [numLayers]int
	// cpu is the CPU slots the flow's tasks hold. It rises under the
	// layer's mu and may fall without it, so Rule 3 reads it atomically.
	cpu atomic.Int64
	// cpuListed reports whether the flow is in its layer's cpuFlows.
	cpuListed bool
	// io is the basic I/O slots the flow's tasks hold; ioIdx is the
	// flow's place in its layer's ioFlows while io > 0.
	io    int
	ioIdx int
}

// The two layers of a dual-layer WFQ, indexing a flow's per-layer state.
const (
	cpuLayer = iota
	ioLayer
	numLayers
)

// queue is a min-heap of tasks ordered by VFT with per-flow cumulative
// virtual time. It has no lock of its own: its DualLayer's mu guards it,
// together with the slots a popped task runs in.
type queue struct {
	layer int // which of a flow's per-layer states this queue keeps
	items taskHeap
	vtime float64 // system virtual time: VFT of the last dequeued task
	// waiting is len(items), for a reader that does not hold the lock.
	waiting atomic.Int64
}

func newQueue(layer int) *queue { return &queue{layer: layer} }

type taskHeap []*Task

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return h[i].vft < h[j].vft }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *taskHeap) Push(x interface{}) { t := x.(*Task); t.idx = len(*h); *h = append(*h, t) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// push computes the task's VFT and enqueues it. cost selects which cost
// dimension applies at this layer (Rule 1).
func (q *queue) push(t *Task, cost float64) {
	q.stamp(t, cost)
	heap.Push(&q.items, t)
	t.flow.queued[q.layer]++
	q.waiting.Store(int64(len(q.items)))
}

// admitInline accounts t as pushed and popped at once — what a task
// that finds the queue empty and a slot free goes through — without
// touching the heap: its flow's preVFT and the virtual time advance
// exactly as if it had queued.
func (q *queue) admitInline(t *Task, cost float64) {
	q.stamp(t, cost)
	q.advance(t)
}

// stamp sets t's VFT and charges it to its flow's preVFT.
func (q *queue) stamp(t *Task, cost float64) {
	share := t.QuotaShare
	if share <= 0 {
		share = 1e-6
	}
	wReqCost := cost / share
	pre := &t.flow.preVFT[q.layer]
	if *pre < q.vtime {
		// A tenant idle long enough re-enters at the current virtual
		// time instead of catching up from the past (standard WFQ
		// re-entry), and never ahead of tenants that kept working.
		*pre = q.vtime
	}
	t.vft = *pre + wReqCost
	*pre = t.vft
}

// advance moves the virtual time up to a dequeued task's VFT.
func (q *queue) advance(t *Task) {
	if t.vft > q.vtime {
		q.vtime = t.vft
	}
}

// pop removes and returns the lowest-VFT task, or nil when empty.
// When skip is non-nil, tasks of that flow are never returned (Rule 3
// / Rule 4 support); nil is returned if only skip's tasks remain.
func (q *queue) pop(skip *flow) *Task {
	if len(q.items) == 0 {
		return nil
	}
	best := 0
	if skip != nil {
		// Find the lowest-VFT task not from skip.
		best = -1
		for i, t := range q.items {
			if t.flow == skip {
				continue
			}
			if best == -1 || t.vft < q.items[best].vft {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
	}
	t := heap.Remove(&q.items, best).(*Task)
	t.flow.queued[q.layer]--
	q.waiting.Store(int64(len(q.items)))
	q.advance(t)
	return t
}

// len returns the queued task count.
func (q *queue) len() int { return len(q.items) }

// hasOther reports whether any queued task belongs to a flow other
// than f.
func (q *queue) hasOther(f *flow) bool {
	return f.queued[q.layer] < len(q.items)
}
