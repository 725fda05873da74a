package wfq

import (
	"sync"
	"sync/atomic"

	"abase/internal/metrics"
	"abase/internal/quota"
)

// Config tunes one dual-layer WFQ.
type Config struct {
	// CPUWorkers is the CPU-WFQ concurrency (Rule 2). Default 4.
	CPUWorkers int
	// BasicIOThreads is the I/O-WFQ basic thread count (Rule 4). Default 2.
	BasicIOThreads int
	// ExtraIOThreads is the maximum temporary extra threads spawned when
	// one tenant monopolizes the basic threads (Rule 4). Default 2; a
	// negative value spawns none.
	ExtraIOThreads int
	// WriteCeilingBucket caps the write RU admitted into the CPU stage
	// at its rate (Rule 2, compaction stability); nil sets no ceiling.
	WriteCeilingBucket *quota.Bucket
}

// tenantShareCap is Rule 3: the largest fraction of the CPU concurrency
// one tenant may occupy.
const tenantShareCap = 0.9

func (c Config) withDefaults() Config {
	if c.CPUWorkers <= 0 {
		c.CPUWorkers = 4
	}
	if c.BasicIOThreads <= 0 {
		c.BasicIOThreads = 2
	}
	switch {
	case c.ExtraIOThreads < 0:
		c.ExtraIOThreads = 0
	case c.ExtraIOThreads == 0:
		c.ExtraIOThreads = 2
	}
	return c
}

// DualLayer is one dual-layer WFQ: a CPU queue feeding an I/O queue.
//
// A task runs each stage in a slot of its layer — CPUWorkers CPU slots
// (Rule 2), BasicIOThreads basic I/O slots (Rule 4). A task is offered
// to a layer when it enters it (offerLocked): a task whose caller runs
// it (Run, and its own hand-off to the I/O layer) takes a slot at once
// when nothing is queued ahead, so an idle layer starts it without a
// hand-off, as a work-conserving WFQ should; any other task queues, and
// a worker takes the next one when a slot frees (takeLocked).
//
// The books are kept per flow, one per tenant: a task is bound to its
// tenant's flow once, when it enters, and no later step hashes the
// tenant's name.
type DualLayer struct {
	cfg Config

	// mu guards both queues, the flows and the slot accounting below,
	// except what releaseCPU changes without it; each layer's workers
	// wait on its cond.
	mu   sync.Mutex
	q    [numLayers]queue
	cond [numLayers]sync.Cond
	// closed is written under mu and read without it by releaseCPU.
	closed atomic.Bool

	// flows holds every tenant's flow.
	flows map[string]*flow

	// CPU slots held in total (at most CPUWorkers), and Rule 3's view of
	// them: the flows that may hold some — every flow holding a slot is
	// listed, and a listed flow holding none leaves at Rule 3's next look.
	// The total rises under mu and may fall without it (releaseCPU).
	cpuTotal atomic.Int64
	cpuFlows []*flow

	// Basic I/O slots, and Rule 4's view of them: the flows the basic
	// slots are serving (ioBusyTotal <= BasicIOThreads).
	ioFlows     []*flow
	ioBusyTotal int
	extraAlive  int

	// wg counts the workers and the runs on callers in progress.
	wg sync.WaitGroup

	// stats
	completed   *metrics.Striped[metrics.Counter]
	ioServed    atomic.Int64
	extraSpawns atomic.Int64
	rule3Skips  atomic.Int64
	// dequeued counts the stages workers took off either queue; a task
	// whose stages all ran on its Run caller adds none.
	dequeued atomic.Int64
}

// NewDualLayer starts the workers for one dual-layer WFQ.
func NewDualLayer(cfg Config) *DualLayer {
	d := newDualLayer(cfg)
	for l, n := range [numLayers]int{d.cfg.CPUWorkers, d.cfg.BasicIOThreads} {
		for range n {
			d.wg.Add(1)
			go d.worker(l, nil)
		}
	}
	return d
}

// newDualLayer returns a dual-layer WFQ without its workers.
func newDualLayer(cfg Config) *DualLayer {
	d := &DualLayer{
		cfg:       cfg.withDefaults(),
		flows:     make(map[string]*flow),
		completed: metrics.NewStriped[metrics.Counter](),
	}
	for l := range d.q {
		d.q[l].layer = l
		d.cond[l].L = &d.mu
	}
	return d
}

// flowLocked returns tenant's flow, created on first use.
// +locked:d.mu
func (d *DualLayer) flowLocked(tenant string) *flow {
	f, ok := d.flows[tenant]
	if !ok {
		f = new(flow)
		d.flows[tenant] = f
	}
	return f
}

// bindLocked binds t to its tenant's flow.
// +locked:d.mu
func (d *DualLayer) bindLocked(t *Task) { t.flow = d.flowLocked(t.Tenant) }

// Submit enqueues a task into the CPU-WFQ. It returns false if the
// scheduler is closed or a write exceeds the write-RU ceiling (Rule 2),
// in which case Done is not called.
func (d *DualLayer) Submit(t *Task) bool { return d.enter(t, false) }

// Run is Submit for a caller that waits for t anyway: when t's turn is
// free — nothing queued in the CPU-WFQ and a CPU slot free, exactly when
// a worker would pop it at once — t takes a worker's steps on the
// calling goroutine: VFT accounting as if it had queued, the
// dequeue-point Ctx check, Rule 3 accounting and the CPU stage. On a
// miss its I/O stage also runs on the caller when its turn in the
// I/O-WFQ is free; otherwise it queues for the I/O workers. A task its
// CPU stage answers takes the layer's lock once: its slot goes back
// without it unless a task waits for the slot or the layer is closing.
// When t's turn is not free, t queues as Submit queues it.
func (d *DualLayer) Run(t *Task) bool { return d.enter(t, true) }

// enter applies the write-RU ceiling (Rule 2), binds t to its flow and
// offers it to the CPU layer; inline runs it on the caller when its
// turn is free.
func (d *DualLayer) enter(t *Task, inline bool) bool {
	d.mu.Lock()
	if d.closed.Load() || !d.ceilingAllows(t) {
		d.mu.Unlock()
		return false
	}
	d.bindLocked(t)
	if !d.offerLocked(t, cpuLayer, inline) {
		d.mu.Unlock()
		return true
	}
	d.wg.Add(1) // Close waits for the run like for a worker
	d.mu.Unlock()
	defer d.wg.Done()
	d.runCPU(t, true)
	return true
}

// offerLocked gives t its turn in layer l, charged at the layer's cost
// (Rule 1: RU in the CPU layer, IOPS in the I/O layer). When inline and
// the turn is free — nothing queued in the layer and a slot free — t
// takes the slot at once, its flow's preVFT and the virtual time
// advancing exactly as if it had queued and been popped, and
// offerLocked reports true: the caller runs the stage. Otherwise t
// queues and a worker of the layer is woken.
// +locked:d.mu
func (d *DualLayer) offerLocked(t *Task, l int, inline bool) bool {
	q, cost := &d.q[l], t.RUCost
	if l == ioLayer {
		cost = t.IOPSCost
	}
	if inline && q.len() == 0 && d.slotFreeLocked(l) {
		q.admitInline(t, cost)
		d.holdLocked(l, t.flow)
		return true
	}
	q.push(t, cost)
	d.cond[l].Signal()
	return false
}

// ceilingAllows applies the write-RU ceiling (Rule 2) to t.
func (d *DualLayer) ceilingAllows(t *Task) bool {
	b := d.cfg.WriteCeilingBucket
	return !t.Class.IsWrite() || b == nil || b.Allow(t.RUCost, b.Now())
}

// takeLocked is one worker step: it pops layer l's next task in VFT
// order into a slot of the layer and returns it, or returns nil when
// nothing is queued or no slot is free. Rule 3: a CPU take passes over
// the flow holding most of the CPU slots while another flow has a task
// queued. Rule 4: an extra worker's take (avoid non-nil) serves flows
// other than avoid, outside the slots.
// +locked:d.mu
func (d *DualLayer) takeLocked(l int, avoid *flow) *Task {
	q := &d.q[l]
	if q.len() == 0 || avoid == nil && !d.slotFreeLocked(l) {
		return nil
	}
	skip := avoid
	if avoid == nil && l == cpuLayer {
		if skip = d.monopolizingFlowLocked(); skip != nil && q.hasOther(skip) {
			d.rule3Skips.Add(1)
		} else {
			skip = nil
		}
	}
	t := q.pop(skip)
	if t == nil {
		return nil // only avoid's tasks are queued
	}
	if avoid == nil {
		d.holdLocked(l, t.flow)
	}
	d.dequeued.Add(1)
	return t
}

// monopolizingFlowLocked returns the flow currently holding at least
// tenantShareCap of the CPU concurrency, if any (Rule 3). It walks the
// listed flows, and unlists those that hold no slot.
// +locked:d.mu
func (d *DualLayer) monopolizingFlowLocked() *flow {
	total := d.cpuTotal.Load()
	if total == 0 {
		return nil
	}
	var mono *flow
	live := d.cpuFlows[:0]
	for _, f := range d.cpuFlows {
		n := f.cpu.Load()
		if n == 0 {
			f.cpuListed = false
			continue
		}
		live = append(live, f)
		if float64(n) >= tenantShareCap*float64(d.cfg.CPUWorkers) && float64(n)/float64(total) >= tenantShareCap {
			mono = f
		}
	}
	clear(d.cpuFlows[len(live):])
	d.cpuFlows = live
	return mono
}

// slotFreeLocked reports whether layer l has a slot free.
// +locked:d.mu
func (d *DualLayer) slotFreeLocked(l int) bool {
	if l == cpuLayer {
		return d.cpuTotal.Load() < int64(d.cfg.CPUWorkers)
	}
	return d.ioBusyTotal < d.cfg.BasicIOThreads
}

// holdLocked gives a task of f a slot in layer l.
// +locked:d.mu
func (d *DualLayer) holdLocked(l int, f *flow) {
	if l == cpuLayer {
		if !f.cpuListed {
			f.cpuListed = true
			d.cpuFlows = append(d.cpuFlows, f)
		}
		f.cpu.Add(1)
		d.cpuTotal.Add(1)
		return
	}
	if f.io == 0 {
		f.ioIdx = len(d.ioFlows)
		d.ioFlows = append(d.ioFlows, f)
	}
	f.io++
	d.ioBusyTotal++
}

// releaseCPU frees a CPU slot a task of f held, without the lock: only
// a CPU worker waiting for the slot, or a layer closing, needs to hear
// of it, and both are then woken under the lock. The slot is freed
// before the waiters are looked for, and a task is queued (or the layer
// closed) before a worker looks at the slots, so either the worker sees
// the slot free or releaseCPU sees the waiter.
func (d *DualLayer) releaseCPU(f *flow) {
	f.cpu.Add(-1)
	d.cpuTotal.Add(-1)
	if d.q[cpuLayer].waiting.Load() > 0 || d.closed.Load() {
		d.mu.Lock()
		d.cpuFreedLocked()
		d.mu.Unlock()
	}
}

// cpuFreedLocked wakes what a freed CPU slot lets go on: a CPU worker
// with a queued task for it, every CPU worker of a closed layer, and the
// I/O workers once nothing more can reach the I/O-WFQ.
// +locked:d.mu
func (d *DualLayer) cpuFreedLocked() {
	switch {
	case d.q[cpuLayer].len() > 0:
		d.cond[cpuLayer].Signal() // the freed slot has a taker
	case d.closed.Load():
		d.cond[cpuLayer].Broadcast() // every waiting CPU worker can exit
	}
	if d.exhaustedLocked(ioLayer) {
		d.cond[ioLayer].Broadcast() // and so can the I/O workers
	}
}

// exhaustedLocked reports whether layer l is done: the layer is closed,
// nothing is queued in l, and for the I/O layer nothing can reach it
// any more — no task is queued for or running a CPU stage.
// +locked:d.mu
func (d *DualLayer) exhaustedLocked(l int) bool {
	if !d.closed.Load() || d.q[l].len() > 0 {
		return false
	}
	return l == cpuLayer || d.q[cpuLayer].len() == 0 && d.cpuTotal.Load() == 0
}

// worker serves layer l one takeLocked step at a time. A basic worker
// (avoid nil) serves in the layer's slots, waiting when the step finds
// nothing to take, until the layer is exhausted. A temporary Rule 4
// worker serves flows other than avoid outside the basic slots, and
// exits when none is queued.
func (d *DualLayer) worker(l int, avoid *flow) {
	defer d.wg.Done()
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.exhaustedLocked(l) {
		t := d.takeLocked(l, avoid)
		if t == nil && avoid != nil {
			break
		}
		if t == nil {
			d.cond[l].Wait()
			continue
		}
		d.mu.Unlock()
		if l == cpuLayer {
			d.runCPU(t, false)
		} else {
			d.runIO(t, avoid == nil)
		}
		d.mu.Lock()
	}
	if avoid != nil {
		d.extraAlive--
	}
}

// runCPU takes t, which holds a CPU slot, through the CPU layer. inline
// lets its I/O stage stay on the calling goroutine (see handOff).
func (d *DualLayer) runCPU(t *Task, inline bool) {
	// A task whose context expired while it waited sheds here,
	// before its CPU stage burns any service time.
	if err := t.shed(); err != nil {
		d.releaseCPU(t.flow)
		d.resolve(t, err)
		return
	}
	if t.CPUStage == nil || !t.CPUStage() || t.IOStage == nil {
		d.releaseCPU(t.flow)
		d.resolve(t, nil)
		return
	}
	if d.handOff(t, inline) {
		d.runIO(t, true)
	}
}

// handOff releases t's CPU slot and offers t to the I/O layer in the
// same step, so the I/O workers never find the layer drained while a
// CPU stage can still feed it. It reports whether t took a basic slot
// inline (see offerLocked); when t queued instead, Rule 4 may spawn an
// extra worker.
func (d *DualLayer) handOff(t *Task, inline bool) (runIO bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.flow.cpu.Add(-1)
	d.cpuTotal.Add(-1)
	d.cpuFreedLocked()
	if d.offerLocked(t, ioLayer, inline) {
		return true
	}
	if mono := d.extraDueLocked(); mono != nil {
		d.extraAlive++
		d.extraSpawns.Add(1)
		d.wg.Add(1)
		go d.worker(ioLayer, mono)
	}
	return false
}

// extraDueLocked implements Rule 4's trigger: when every basic I/O slot
// is busy serving a single flow, another flow has I/O queued and fewer
// than ExtraIOThreads extra workers are alive, it returns that single
// flow, which a temporary extra worker is to pass over; otherwise nil.
// +locked:d.mu
func (d *DualLayer) extraDueLocked() *flow {
	if d.ioBusyTotal < d.cfg.BasicIOThreads || len(d.ioFlows) != 1 || d.extraAlive >= d.cfg.ExtraIOThreads || !d.q[ioLayer].hasOther(d.ioFlows[0]) {
		return nil
	}
	return d.ioFlows[0]
}

// runIO runs t's I/O stage; basic means t holds a basic I/O slot, which
// is released before t is resolved.
func (d *DualLayer) runIO(t *Task, basic bool) {
	// Same shed point for the I/O layer: a cache-missing request
	// canceled between the CPU and I/O stages skips the disk work.
	err := t.shed()
	if err == nil {
		t.IOStage()
		d.ioServed.Add(1)
	}
	if basic {
		d.releaseIO(t.flow)
	}
	d.resolve(t, err)
}

// resolve completes t — through Done, or through Abort (falling back to
// Done) when it was shed with err — counting it first, so a caller the
// resolution wakes reads it in Stats. Resolving is the scheduler's last
// access to t: whoever it wakes may reuse the task at once.
func (d *DualLayer) resolve(t *Task, err error) {
	d.completed.Cell().Inc()
	switch {
	case err != nil && t.Abort != nil:
		t.Abort(err)
	case t.Done != nil:
		t.Done()
	}
}

// releaseIO frees a basic I/O slot a task of f held.
func (d *DualLayer) releaseIO(f *flow) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.io--; f.io == 0 {
		last := d.ioFlows[len(d.ioFlows)-1]
		d.ioFlows[f.ioIdx], last.ioIdx = last, f.ioIdx
		d.ioFlows[len(d.ioFlows)-1] = nil
		d.ioFlows = d.ioFlows[:len(d.ioFlows)-1]
	}
	d.ioBusyTotal--
	switch {
	case d.q[ioLayer].len() > 0:
		d.cond[ioLayer].Signal()
	case d.exhaustedLocked(ioLayer):
		d.cond[ioLayer].Broadcast()
	}
}

// Close stops accepting tasks and waits for queued work to drain and
// for the runs on callers in progress to finish.
func (d *DualLayer) Close() {
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return
	}
	d.closed.Store(true)
	d.cond[cpuLayer].Broadcast()
	d.cond[ioLayer].Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// Stats reports scheduler counters.
type Stats struct {
	Completed   int64
	IOServed    int64
	ExtraSpawns int64
	Rule3Skips  int64
	CPUQueued   int
	IOQueued    int
}

// Stats returns a snapshot of counters.
func (d *DualLayer) Stats() Stats {
	d.mu.Lock()
	cpuQueued, ioQueued := d.q[cpuLayer].len(), d.q[ioLayer].len()
	d.mu.Unlock()
	var completed int64
	d.completed.Each(func(c *metrics.Counter) { completed += c.Value() })
	return Stats{
		Completed:   completed,
		IOServed:    d.ioServed.Load(),
		ExtraSpawns: d.extraSpawns.Load(),
		Rule3Skips:  d.rule3Skips.Load(),
		CPUQueued:   cpuQueued,
		IOQueued:    ioQueued,
	}
}

// Scheduler bundles the four class-separated dual-layer WFQs of one
// DataNode (Figure 2).
type Scheduler struct {
	queues [numClasses]*DualLayer
}

// NewScheduler starts all four dual-layer WFQs with the same config.
func NewScheduler(cfg Config) *Scheduler {
	s := &Scheduler{}
	for i := range s.queues {
		s.queues[i] = NewDualLayer(cfg)
	}
	return s
}

// Submit routes the task to its class's dual-layer WFQ.
func (s *Scheduler) Submit(t *Task) bool { return s.route(t).Submit(t) }

// Run routes the task to its class's dual-layer WFQ, to run on the
// caller when its turn is free (see DualLayer.Run).
func (s *Scheduler) Run(t *Task) bool { return s.route(t).Run(t) }

// route returns t's class's dual-layer WFQ; an unknown class is a
// small read.
func (s *Scheduler) route(t *Task) *DualLayer {
	if t.Class < 0 || t.Class >= numClasses {
		t.Class = SmallRead
	}
	return s.queues[t.Class]
}

// Queue returns the dual-layer WFQ for a class (test and stats access).
func (s *Scheduler) Queue(c Class) *DualLayer { return s.queues[c] }

// Close drains and stops all four queues.
func (s *Scheduler) Close() {
	for _, q := range s.queues {
		q.Close()
	}
}
