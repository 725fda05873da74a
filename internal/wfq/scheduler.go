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
// (Rule 2), BasicIOThreads basic I/O slots (Rule 4). A worker takes a
// slot for the next queued task; TryRun takes one on its caller's
// goroutine when nothing is queued ahead, so an idle layer starts a task
// at once without a hand-off, as a work-conserving WFQ should.
//
// The books are kept per flow, one per tenant: a task is bound to its
// tenant's flow once, when it enters, and no later step hashes the
// tenant's name.
type DualLayer struct {
	cfg Config

	// mu guards both queues, the flows and the slot accounting below,
	// except what releaseCPU changes without it; the workers wait on the
	// conds.
	mu      sync.Mutex
	cpuQ    *queue
	ioQ     *queue
	cpuCond *sync.Cond
	ioCond  *sync.Cond
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

	// wg counts the workers and the inline runs in progress.
	wg sync.WaitGroup

	// stats
	completed   *metrics.Striped[metrics.Counter]
	ioServed    atomic.Int64
	extraSpawns atomic.Int64
	rule3Skips  atomic.Int64
	// dequeued counts the stages workers took off either queue; a task
	// whose stages all ran on its TryRun caller adds none.
	dequeued atomic.Int64
}

// NewDualLayer starts the workers for one dual-layer WFQ.
func NewDualLayer(cfg Config) *DualLayer {
	d := newDualLayer(cfg)
	for i := 0; i < d.cfg.CPUWorkers; i++ {
		d.wg.Add(1)
		go d.cpuWorker()
	}
	for i := 0; i < d.cfg.BasicIOThreads; i++ {
		d.wg.Add(1)
		go d.ioWorker()
	}
	return d
}

// newDualLayer returns a dual-layer WFQ without its workers.
func newDualLayer(cfg Config) *DualLayer {
	d := &DualLayer{
		cfg:       cfg.withDefaults(),
		cpuQ:      newQueue(cpuLayer),
		ioQ:       newQueue(ioLayer),
		flows:     make(map[string]*flow),
		completed: metrics.NewStriped[metrics.Counter](),
	}
	d.cpuCond = sync.NewCond(&d.mu)
	d.ioCond = sync.NewCond(&d.mu)
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
func (d *DualLayer) Submit(t *Task) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() || !d.ceilingAllows(t) {
		return false
	}
	d.bindLocked(t)
	d.cpuQ.push(t, t.RUCost) // Rule 1: CPU layer costs RU
	d.cpuCond.Signal()
	return true
}

// TryRun runs t on the calling goroutine when its turn is free: the
// layer is open, nothing is queued in its CPU-WFQ and a CPU slot is
// free — exactly when a worker would pop it at once. t then takes a
// worker's steps: VFT accounting as if it had queued, the dequeue-point
// Ctx check, Rule 3 accounting and the CPU stage. On a miss its I/O
// stage also runs on the caller when the I/O-WFQ is empty and a basic
// slot is free; otherwise it queues for the I/O workers. A task its CPU
// stage answers takes the layer's lock once: its slot goes back without
// it unless a task waits for the slot or the layer is closing.
//
// taken reports whether TryRun dealt with t; when it did not, nothing
// happened and the caller Submits t instead. When taken, accepted is
// what Submit would have returned: false means the write ceiling
// refused t, and neither Done nor Abort is called.
func (d *DualLayer) TryRun(t *Task) (taken, accepted bool) {
	d.mu.Lock()
	if d.closed.Load() || d.cpuQ.len() > 0 || d.cpuTotal.Load() >= int64(d.cfg.CPUWorkers) {
		d.mu.Unlock()
		return false, false
	}
	if !d.ceilingAllows(t) {
		d.mu.Unlock()
		return true, false
	}
	d.bindLocked(t)
	d.cpuQ.admitInline(t, t.RUCost)
	d.holdCPULocked(t.flow)
	d.wg.Add(1) // Close waits for the run like for a worker
	d.mu.Unlock()
	defer d.wg.Done()
	d.runCPU(t, true)
	return true, true
}

// ceilingAllows applies the write-RU ceiling (Rule 2) to t.
func (d *DualLayer) ceilingAllows(t *Task) bool {
	b := d.cfg.WriteCeilingBucket
	return !t.Class.IsWrite() || b == nil || b.Allow(t.RUCost, b.Now())
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

// holdCPULocked gives a task of f a CPU slot.
// +locked:d.mu
func (d *DualLayer) holdCPULocked(f *flow) {
	if !f.cpuListed {
		f.cpuListed = true
		d.cpuFlows = append(d.cpuFlows, f)
	}
	f.cpu.Add(1)
	d.cpuTotal.Add(1)
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
	if d.cpuQ.waiting.Load() > 0 || d.closed.Load() {
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
	case d.cpuQ.len() > 0:
		d.cpuCond.Signal() // the freed slot has a taker
	case d.closed.Load():
		d.cpuCond.Broadcast() // every waiting CPU worker can exit
	}
	if d.drainedLocked() {
		d.ioCond.Broadcast() // and so can the I/O workers, once their queue is empty
	}
}

// holdIOLocked gives a task of f a basic I/O slot.
// +locked:d.mu
func (d *DualLayer) holdIOLocked(f *flow) {
	if f.io == 0 {
		f.ioIdx = len(d.ioFlows)
		d.ioFlows = append(d.ioFlows, f)
	}
	f.io++
	d.ioBusyTotal++
}

// drainedLocked reports whether nothing can reach the I/O-WFQ any more:
// the layer is closed and no task is queued for or running a CPU stage.
// +locked:d.mu
func (d *DualLayer) drainedLocked() bool {
	return d.closed.Load() && d.cpuQ.len() == 0 && d.cpuTotal.Load() == 0
}

func (d *DualLayer) cpuWorker() {
	defer d.wg.Done()
	for t := d.nextCPU(); t != nil; t = d.nextCPU() {
		d.runCPU(t, false)
	}
}

// nextCPU waits until a task is queued and a CPU slot is free, then
// pops the next task in VFT order into that slot. It returns nil once
// the layer is closed and its CPU-WFQ is empty.
func (d *DualLayer) nextCPU() *Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.cpuQ.len() == 0 || d.cpuTotal.Load() >= int64(d.cfg.CPUWorkers) {
		if d.closed.Load() && d.cpuQ.len() == 0 {
			return nil
		}
		d.cpuCond.Wait()
	}
	skip := d.monopolizingFlowLocked()
	if skip != nil && d.cpuQ.hasOther(skip) {
		d.rule3Skips.Add(1)
	} else {
		skip = nil
	}
	t := d.cpuQ.pop(skip)
	d.holdCPULocked(t.flow)
	d.dequeued.Add(1)
	return t
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

// handOff releases t's CPU slot and moves t to the I/O layer in the
// same step, so the I/O workers never find the layer drained while a
// CPU stage can still feed it. An inline run keeps t when the I/O-WFQ is
// empty and a basic slot is free: handOff then reports true and t holds
// that slot. Otherwise t queues for the I/O workers, and Rule 4 may
// spawn an extra one.
func (d *DualLayer) handOff(t *Task, inline bool) (runIO bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.flow.cpu.Add(-1)
	d.cpuTotal.Add(-1)
	d.cpuFreedLocked()
	if inline && d.ioQ.len() == 0 && d.ioBusyTotal < d.cfg.BasicIOThreads {
		d.ioQ.admitInline(t, t.IOPSCost) // Rule 1: IO layer costs IOPS
		d.holdIOLocked(t.flow)
		return true
	}
	d.ioQ.push(t, t.IOPSCost) // Rule 1: IO layer costs IOPS
	d.ioCond.Signal()
	d.maybeSpawnExtraLocked()
	return false
}

// maybeSpawnExtraLocked implements Rule 4: if every basic I/O slot is
// busy serving a single tenant and another tenant has queued I/O, spawn
// a temporary extra thread dedicated to the other tenants.
// +locked:d.mu
func (d *DualLayer) maybeSpawnExtraLocked() {
	if d.ioBusyTotal < d.cfg.BasicIOThreads || len(d.ioFlows) != 1 || d.extraAlive >= d.cfg.ExtraIOThreads {
		return
	}
	mono := d.ioFlows[0]
	if !d.ioQ.hasOther(mono) {
		return
	}
	d.extraAlive++
	d.extraSpawns.Add(1)
	d.wg.Add(1)
	go d.extraIOWorker(mono)
}

// ioWorker serves the I/O-WFQ in the basic slots until the layer is
// closed and drained.
func (d *DualLayer) ioWorker() {
	defer d.wg.Done()
	for t := d.nextIO(); t != nil; t = d.nextIO() {
		d.runIO(t, true)
	}
}

// nextIO waits until an I/O task is queued and a basic slot is free,
// then pops the next task in VFT order into that slot. It returns nil
// once nothing is queued and nothing can arrive.
func (d *DualLayer) nextIO() *Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.ioQ.len() == 0 || d.ioBusyTotal >= d.cfg.BasicIOThreads {
		if d.ioQ.len() == 0 && d.drainedLocked() {
			return nil
		}
		d.ioCond.Wait()
	}
	t := d.ioQ.pop(nil)
	d.holdIOLocked(t.flow)
	d.dequeued.Add(1)
	return t
}

// extraIOWorker is a temporary Rule 4 thread: outside the basic slots it
// serves flows other than avoid, and exits when none is queued.
func (d *DualLayer) extraIOWorker(avoid *flow) {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		t := d.ioQ.pop(avoid)
		if t == nil {
			d.extraAlive--
		}
		d.mu.Unlock()
		if t == nil {
			return
		}
		d.dequeued.Add(1)
		d.runIO(t, false)
	}
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
	case d.ioQ.len() > 0:
		d.ioCond.Signal()
	case d.drainedLocked():
		d.ioCond.Broadcast()
	}
}

// Close stops accepting tasks and waits for queued work to drain and
// for the inline runs in progress to finish.
func (d *DualLayer) Close() {
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return
	}
	d.closed.Store(true)
	d.cpuCond.Broadcast()
	d.ioCond.Broadcast()
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
	cpuQueued, ioQueued := d.cpuQ.len(), d.ioQ.len()
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

// TryRun offers the task to its class's dual-layer WFQ to run on the
// caller (see DualLayer.TryRun).
func (s *Scheduler) TryRun(t *Task) (taken, accepted bool) { return s.route(t).TryRun(t) }

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
