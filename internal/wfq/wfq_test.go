package wfq

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abase/internal/quota"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		write bool
		size  int
		want  Class
	}{
		{false, 100, SmallRead},
		{false, 100_000, LargeRead},
		{true, 100, SmallWrite},
		{true, 100_000, LargeWrite},
		{false, 4096, SmallRead},
		{false, 4097, LargeRead},
	}
	for _, c := range cases {
		if got := ClassFor(c.write, c.size); got != c.want {
			t.Errorf("ClassFor(%v,%d) = %v, want %v", c.write, c.size, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c := SmallRead; c < numClasses; c++ {
		if c.String() == "Unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
	if !SmallWrite.IsWrite() || LargeRead.IsWrite() {
		t.Error("IsWrite wrong")
	}
}

func TestQueueVFTOrdering(t *testing.T) {
	q := newTestQueue()
	// Tenant A has share 0.9, tenant B share 0.1. Equal costs: B's
	// weighted cost is 9× A's, so As should drain ~9× faster... but
	// cumulative VFT means after one B task, A gets several turns.
	mk := func(tenant string, share float64) *Task {
		return &Task{Tenant: tenant, QuotaShare: share}
	}
	for i := 0; i < 9; i++ {
		q.push(mk("A", 0.9), 1)
	}
	q.push(mk("B", 0.1), 1)
	var order []string
	for {
		task := q.pop("")
		if task == nil {
			break
		}
		order = append(order, task.Tenant)
	}
	if len(order) != 10 {
		t.Fatalf("popped %d", len(order))
	}
	// A's VFT increments ~1.11 per task; B's single task lands at 10.
	// So (modulo float ties at exactly 10) nearly all As precede B.
	for i := 0; i < 8; i++ {
		if order[i] != "A" {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestQueueCumulativeVFTPreventsStarvation(t *testing.T) {
	q := newTestQueue()
	// Tenant A floods with cheap requests; tenant B sends fewer costly
	// ones. B must still get service interleaved, not starved to the end.
	for i := 0; i < 20; i++ {
		q.push(&Task{Tenant: "A", QuotaShare: 0.5}, 1)
	}
	for i := 0; i < 5; i++ {
		q.push(&Task{Tenant: "B", QuotaShare: 0.5}, 2)
	}
	var firstB, popped int
	for {
		task := q.pop("")
		if task == nil {
			break
		}
		popped++
		if task.Tenant == "B" && firstB == 0 {
			firstB = popped
		}
	}
	if firstB == 0 || firstB > 10 {
		t.Fatalf("first B served at position %d of %d", firstB, popped)
	}
}

func TestQueuePopSkip(t *testing.T) {
	q := newTestQueue()
	q.push(&Task{Tenant: "A", QuotaShare: 1}, 1)
	q.push(&Task{Tenant: "B", QuotaShare: 1}, 5)
	got := q.pop("A")
	if got == nil || got.Tenant != "B" {
		t.Fatalf("pop skipping A = %+v", got)
	}
	// Only A remains; skip A yields nil.
	if q.pop("A") != nil {
		t.Fatal("pop returned skipped tenant")
	}
	if q.pop("") == nil {
		t.Fatal("A's task lost")
	}
}

func TestQueueIdleTenantReentry(t *testing.T) {
	q := newTestQueue()
	// A accumulates VFT.
	for i := 0; i < 100; i++ {
		q.push(&Task{Tenant: "A", QuotaShare: 1}, 1)
		q.pop("")
	}
	// B arrives late: must not start at VFT 0 and monopolize, nor be
	// penalized; it enters near current virtual time.
	q.push(&Task{Tenant: "B", QuotaShare: 1}, 1)
	q.push(&Task{Tenant: "A", QuotaShare: 1}, 1)
	first := q.pop("")
	second := q.pop("")
	if first == nil || second == nil {
		t.Fatal("missing tasks")
	}
	tenants := map[string]bool{first.Tenant: true, second.Tenant: true}
	if !tenants["A"] || !tenants["B"] {
		t.Fatalf("both tenants should be served: %v then %v", first.Tenant, second.Tenant)
	}
}

func TestDualLayerCompletesTasks(t *testing.T) {
	d := NewDualLayer(Config{})
	defer d.Close()
	var done sync.WaitGroup
	var hits, misses atomic.Int64
	for i := 0; i < 100; i++ {
		i := i
		done.Add(1)
		ok := d.Submit(&Task{
			Tenant:     "T1",
			Class:      SmallRead,
			RUCost:     1,
			IOPSCost:   1,
			QuotaShare: 1,
			CPUStage: func() bool {
				if i%2 == 0 {
					hits.Add(1)
					return false // cache hit: no IO
				}
				return true
			},
			IOStage: func() { misses.Add(1) },
			Done:    func() { done.Done() },
		})
		if !ok {
			t.Fatal("Submit rejected")
		}
	}
	done.Wait()
	if hits.Load() != 50 || misses.Load() != 50 {
		t.Fatalf("hits=%d misses=%d", hits.Load(), misses.Load())
	}
	st := d.Stats()
	if st.Completed != 100 || st.IOServed != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDualLayerDoneCalledOncePerTask(t *testing.T) {
	d := NewDualLayer(Config{})
	defer d.Close()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		d.Submit(&Task{
			Tenant: "T", QuotaShare: 1, RUCost: 1, IOPSCost: 1,
			CPUStage: func() bool { return true },
			IOStage:  func() {},
			Done:     func() { calls.Add(1); wg.Done() },
		})
	}
	wg.Wait()
	if calls.Load() != 50 {
		t.Fatalf("Done called %d times", calls.Load())
	}
}

func TestWriteRUCeiling(t *testing.T) {
	// Rule 2: writes beyond the ceiling are rejected at submit — and by
	// Run, which applies the same ceiling to a write it would run.
	for _, inline := range []bool{false, true} {
		bucket := quota.NewBucket(10, 10, nil)
		d := NewDualLayer(Config{WriteCeilingBucket: bucket})
		accepted := 0
		var wg sync.WaitGroup
		for i := 0; i < 100; i++ {
			wg.Add(1)
			tk := &Task{
				Tenant: "T", Class: SmallWrite, RUCost: 1, QuotaShare: 1,
				CPUStage: func() bool { return false },
				Done:     func() { wg.Done() },
			}
			ok := d.Submit
			if inline {
				ok = d.Run
			}
			if ok(tk) {
				accepted++
			} else {
				wg.Done()
			}
		}
		wg.Wait()
		d.Close()
		if accepted != 10 {
			t.Fatalf("inline=%v: accepted %d writes, want 10 (ceiling)", inline, accepted)
		}
		if got := d.Stats().Completed; got != 10 {
			t.Fatalf("inline=%v: %d tasks completed, want only the 10 accepted", inline, got)
		}
	}
}

func TestReadsNotSubjectToWriteCeiling(t *testing.T) {
	bucket := quota.NewBucket(1, 1, nil)
	d := NewDualLayer(Config{WriteCeilingBucket: bucket})
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		ok := d.Submit(&Task{
			Tenant: "T", Class: SmallRead, RUCost: 1, QuotaShare: 1,
			CPUStage: func() bool { return false },
			Done:     func() { wg.Done() },
		})
		if !ok {
			t.Fatal("read rejected by write ceiling")
		}
	}
	wg.Wait()
}

// monopolist has tenant "hog" hold d's single basic I/O slot with slow
// tasks — queued, or run by Run on their callers — and submits one task of
// tenant "victim" once a hog holds the slot. release lets the hogs
// finish and waits for every task.
func monopolist(d *DualLayer, inline bool) (victimDone <-chan struct{}, release func()) {
	var wg sync.WaitGroup
	block := make(chan struct{})
	entered := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		hog := &Task{
			Tenant: "hog", QuotaShare: 0.5, RUCost: 1, IOPSCost: 1,
			CPUStage: func() bool { return true },
			IOStage:  func() { entered <- struct{}{}; <-block },
			Done:     func() { wg.Done() },
		}
		if inline {
			go d.Run(hog)
		} else {
			d.Submit(hog)
		}
	}
	<-entered // a hog occupies the basic slot
	done := make(chan struct{})
	wg.Add(1)
	d.Submit(&Task{
		Tenant: "victim", QuotaShare: 0.5, RUCost: 1, IOPSCost: 1,
		CPUStage: func() bool { return true },
		IOStage:  func() {},
		Done:     func() { close(done); wg.Done() },
	})
	return done, func() { close(block); wg.Wait() }
}

func TestRule4ExtraThreads(t *testing.T) {
	// One tenant monopolizes the single basic IO slot; another tenant's
	// IO must still complete via extra threads.
	for _, inline := range []bool{false, true} {
		d := NewDualLayer(Config{CPUWorkers: 4, BasicIOThreads: 1, ExtraIOThreads: 2})
		victimDone, release := monopolist(d, inline)
		select {
		case <-victimDone:
		case <-time.After(2 * time.Second):
			t.Fatalf("inline=%v: victim IO starved behind monopolizing tenant", inline)
		}
		release()
		d.Close()
		if d.Stats().ExtraSpawns == 0 {
			t.Fatalf("inline=%v: no extra thread spawned", inline)
		}
	}
}

// TestNegativeExtraIOThreadsMeansNone: ExtraIOThreads -1 turns Rule 4's
// extra threads off instead of taking the default, so a victim waits for
// the basic slot a hog holds. Stepped on a worker-less layer: the hog's
// first task takes the single basic slot, and the victim's I/O stage
// then queues behind the hog's second with no extra worker spawned.
func TestNegativeExtraIOThreadsMeansNone(t *testing.T) {
	if got := (Config{ExtraIOThreads: -1}).withDefaults().ExtraIOThreads; got != 0 {
		t.Fatalf("ExtraIOThreads -1 defaults to %d, want 0", got)
	}
	d := newDualLayer(Config{CPUWorkers: 4, BasicIOThreads: 1, ExtraIOThreads: -1})
	miss := func(tenant string) { // a CPU worker's steps for a cache miss
		d.Submit(&Task{Tenant: tenant, QuotaShare: 0.5, RUCost: 1, IOPSCost: 1})
		d.handOff(take(d, cpuLayer), false)
	}
	miss("hog")
	take(d, ioLayer) // the hog's first task holds the basic slot
	miss("hog")
	miss("victim")
	if st := d.Stats(); st.IOQueued != 2 || st.ExtraSpawns != 0 {
		t.Errorf("stats %+v: want the hog's second task and the victim queued, and no extra thread", st)
	}
}

// The three stepped rule tests below drive a worker-less layer on the
// test goroutine alone, one take step at a time.

// TestRule2Stepped: the write-RU ceiling refuses a write past its burst
// at entry, and the CPU layer takes no task past CPUWorkers until a slot
// is released.
func TestRule2Stepped(t *testing.T) {
	d := newDualLayer(Config{CPUWorkers: 2, WriteCeilingBucket: quota.NewBucket(3, 3, nil)})
	accepted := 0
	for range 4 {
		if d.Submit(&Task{Tenant: "T", Class: SmallWrite, QuotaShare: 1, RUCost: 1}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("the ceiling accepted %d writes of 1 RU, want its burst of 3", accepted)
	}
	first := take(d, cpuLayer)
	if first == nil || take(d, cpuLayer) == nil {
		t.Fatal("an idle layer did not take two tasks into its two CPU slots")
	}
	if tk := take(d, cpuLayer); tk != nil {
		t.Fatal("a third task took a CPU slot past CPUWorkers")
	}
	d.releaseCPU(first.flow)
	if take(d, cpuLayer) == nil {
		t.Fatal("the released CPU slot was not taken")
	}
	if st := d.Stats(); st.CPUQueued != 0 || d.cpuTotal.Load() != 2 {
		t.Errorf("stats %+v, %d CPU slots held: want none queued and both slots held", st, d.cpuTotal.Load())
	}
}

// TestRule3Stepped: a tenant holding 90 % of the CPU slots is passed over
// while another tenant has a task queued, even one with a later VFT; it
// is taken again once it holds less.
func TestRule3Stepped(t *testing.T) {
	d := newDualLayer(Config{CPUWorkers: 10})
	hog := make([]*Task, 0, 10)
	for range 10 {
		d.Submit(&Task{Tenant: "hog", QuotaShare: 0.5, RUCost: 1})
	}
	for range 9 {
		hog = append(hog, take(d, cpuLayer))
	}
	// The hog's queued task finishes at VFT 20; the other tenant's, at
	// the virtual time (18) plus 4/0.5, at 26.
	d.Submit(&Task{Tenant: "b", QuotaShare: 0.5, RUCost: 4})
	if tk := take(d, cpuLayer); tk == nil || tk.Tenant != "b" {
		t.Fatalf("took %+v, want tenant b's task past the monopolizing hog's", tk)
	}
	if n := d.rule3Skips.Load(); n != 1 {
		t.Fatalf("%d Rule 3 skips, want 1", n)
	}
	if tk := take(d, cpuLayer); tk != nil {
		t.Fatal("a task took a CPU slot past CPUWorkers")
	}
	d.releaseCPU(hog[0].flow)
	if tk := take(d, cpuLayer); tk == nil || tk.Tenant != "hog" {
		t.Fatalf("took %+v, want the hog's task once it holds less than 90 %%", tk)
	}
	if n := d.rule3Skips.Load(); n != 1 {
		t.Errorf("%d Rule 3 skips, want still 1", n)
	}
}

// TestRule4Stepped: with the single basic I/O slot serving a hog, an
// extra worker is due exactly when another tenant's I/O is queued and
// fewer than ExtraIOThreads are alive, and its take serves that tenant
// outside the basic slot, never the hog.
func TestRule4Stepped(t *testing.T) {
	d := newDualLayer(Config{BasicIOThreads: 1, ExtraIOThreads: 1})
	offer := func(tenant string) { // a hand-off's offer of an I/O stage
		d.mu.Lock()
		defer d.mu.Unlock()
		tk := &Task{Tenant: tenant, QuotaShare: 0.5, IOPSCost: 1}
		d.bindLocked(tk)
		d.offerLocked(tk, ioLayer, false)
	}
	due := func() *flow {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.extraDueLocked()
	}
	offer("hog")
	offer("hog")
	hog := take(d, ioLayer)
	if hog == nil || due() != nil {
		t.Fatal("with only the hog's I/O queued, want the hog in the basic slot and no extra worker due")
	}
	offer("victim")
	if due() != hog.flow {
		t.Fatal("no extra worker due to pass over the hog holding the basic slot")
	}
	if take(d, ioLayer) != nil {
		t.Fatal("a basic take went past BasicIOThreads")
	}
	d.mu.Lock()
	victim, next := d.takeLocked(ioLayer, hog.flow), d.takeLocked(ioLayer, hog.flow)
	held := d.ioBusyTotal
	d.extraAlive = d.cfg.ExtraIOThreads // as once the extra worker is spawned
	d.mu.Unlock()
	if victim == nil || victim.Tenant != "victim" || next != nil || held != 1 {
		t.Fatalf("the extra takes got %+v then %+v with %d basic slots held: want the victim outside the slot, then nothing", victim, next, held)
	}
	offer("victim")
	if due() != nil {
		t.Error("an extra worker is due past ExtraIOThreads")
	}
}

func TestSchedulerRoutesByClass(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Close()
	var wg sync.WaitGroup
	for _, c := range []Class{SmallRead, LargeRead, SmallWrite, LargeWrite} {
		wg.Add(1)
		s.Submit(&Task{
			Tenant: "T", Class: c, RUCost: 1, QuotaShare: 1,
			CPUStage: func() bool { return false },
			Done:     func() { wg.Done() },
		})
	}
	wg.Wait()
	for _, c := range []Class{SmallRead, LargeRead, SmallWrite, LargeWrite} {
		if s.Queue(c).Stats().Completed != 1 {
			t.Fatalf("class %v did not complete its task", c)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	d := NewDualLayer(Config{})
	d.Close()
	if d.Submit(&Task{Tenant: "T", QuotaShare: 1}) {
		t.Fatal("Submit accepted after Close")
	}
}

func TestFairnessUnderContention(t *testing.T) {
	// Two tenants with equal shares flooding the same queue should each
	// complete roughly half of the first N completions.
	d := NewDualLayer(Config{CPUWorkers: 2})
	var aDone, bDone atomic.Int64
	var wg sync.WaitGroup
	work := func() { time.Sleep(100 * time.Microsecond) }
	for i := 0; i < 200; i++ {
		wg.Add(2)
		d.Submit(&Task{
			Tenant: "A", QuotaShare: 0.5, RUCost: 1,
			CPUStage: func() bool { work(); return false },
			Done:     func() { aDone.Add(1); wg.Done() },
		})
		d.Submit(&Task{
			Tenant: "B", QuotaShare: 0.5, RUCost: 1,
			CPUStage: func() bool { work(); return false },
			Done:     func() { bDone.Add(1); wg.Done() },
		})
	}
	wg.Wait()
	d.Close()
	a, b := aDone.Load(), bDone.Load()
	if a != 200 || b != 200 {
		t.Fatalf("completions a=%d b=%d", a, b)
	}
}

func BenchmarkSubmitComplete(b *testing.B) {
	d := NewDualLayer(Config{CPUWorkers: 4})
	defer d.Close()
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		d.Submit(&Task{
			Tenant: "T", QuotaShare: 1, RUCost: 1,
			CPUStage: func() bool { return false },
			Done:     func() { wg.Done() },
		})
	}
	wg.Wait()
}

// TestCanceledTaskSkipsStages proves that a task whose context is
// already done when a worker dequeues it never runs its CPU or I/O
// stage: the worker resolves it through Abort instead.
func TestCanceledTaskSkipsStages(t *testing.T) {
	d := NewDualLayer(Config{CPUWorkers: 1})
	defer d.Close()

	// Occupy the single CPU worker so the canceled task is guaranteed
	// to wait in the queue until after its context is canceled.
	block := make(chan struct{})
	started := make(chan struct{})
	blockDone := make(chan struct{})
	d.Submit(&Task{
		Tenant:     "a",
		QuotaShare: 1,
		CPUStage: func() bool {
			close(started)
			<-block
			return false
		},
		Done: func() { close(blockDone) },
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var ranStage atomic.Bool
	aborted := make(chan error, 1)
	d.Submit(&Task{
		Tenant:     "a",
		QuotaShare: 1,
		Ctx:        ctx,
		CPUStage:   func() bool { ranStage.Store(true); return false },
		Done:       func() { t.Error("Done called for aborted task") },
		Abort:      func(err error) { aborted <- err },
	})
	cancel()
	close(block)
	<-blockDone

	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abort err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted task never resolved")
	}
	if ranStage.Load() {
		t.Fatal("canceled task ran its CPU stage")
	}
}

// TestCanceledTaskFallsBackToDone covers the Abort-less form: a
// canceled task without an Abort callback still resolves through Done
// exactly once.
func TestCanceledTaskFallsBackToDone(t *testing.T) {
	d := NewDualLayer(Config{CPUWorkers: 1})
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	d.Submit(&Task{
		Tenant:     "a",
		QuotaShare: 1,
		Ctx:        ctx,
		CPUStage:   func() bool { t.Error("stage ran"); return false },
		Done:       func() { close(done) },
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled task never resolved")
	}
}

// probe records what the scheduler did with one task.
type probe struct {
	cpu, io, done atomic.Int32
	abort         chan error
}

func newProbe() *probe { return &probe{abort: make(chan error, 1)} }

func (p *probe) task(tenant string, miss bool) *Task {
	return &Task{
		Tenant: tenant, QuotaShare: 1, RUCost: 2, IOPSCost: 1,
		CPUStage: func() bool { p.cpu.Add(1); return miss },
		IOStage:  func() { p.io.Add(1) },
		Done:     func() { p.done.Add(1) },
		Abort:    func(err error) { p.abort <- err },
	}
}

// parkInline occupies a CPU slot of d — with io, a basic I/O slot
// instead — by a Run parked in its stage on its caller until release is
// closed.
func parkInline(t *testing.T, d *DualLayer, io bool, release chan struct{}) {
	t.Helper()
	entered := make(chan struct{})
	park := func() { close(entered); <-release }
	// Tenant T, like every task the tests queue behind it: with a single
	// tenant, Rule 4 spawns no extra thread around a parked I/O slot.
	tk := &Task{Tenant: "T", QuotaShare: 1, RUCost: 1, IOPSCost: 1}
	if io {
		tk.CPUStage = func() bool { return true }
		tk.IOStage = park
	} else {
		tk.CPUStage = func() bool { park(); return false }
	}
	dequeued := d.dequeued.Load()
	go d.Run(tk)
	<-entered
	if d.dequeued.Load() != dequeued {
		t.Error("the parking run went to a worker")
	}
}

// TestRun: Run runs a task on its caller exactly when a worker would
// have started it at once, and then does what the worker would have
// done; otherwise it queues the task as Submit does.
func TestRun(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		// noWorkers starts none: a queued task stays queued, as it does
		// for the instant before a worker pops it.
		noWorkers bool
		// setup brings the layer into the row's state.
		setup   func(t *testing.T, d *DualLayer, release chan struct{})
		write   bool // a SmallWrite at RUCost 2
		miss    bool // the CPU stage asks for the I/O stage
		ctxDone bool // Ctx is done before the call

		accepted      bool
		queued        bool // the task queued in the CPU-WFQ
		cpuRan, ioRan bool // the stage ran before Run returned
		doneOnReturn  bool // Done ran before Run returned
		ioToWorker    bool // the I/O stage went to a worker
		aborts        bool // resolved through Abort with the context error
	}{
		{name: "idle layer", accepted: true, cpuRan: true, doneOnReturn: true},
		{name: "idle layer, miss", miss: true, accepted: true, cpuRan: true, ioRan: true, doneOnReturn: true},
		{
			name:      "task queued ahead",
			noWorkers: true,
			setup: func(t *testing.T, d *DualLayer, release chan struct{}) {
				// A worker would pop it first, so Run must not overtake it.
				d.Submit(newProbe().task("ahead", false))
			},
			accepted: true, queued: true,
		},
		{
			name: "every CPU slot busy",
			cfg:  Config{CPUWorkers: 2},
			setup: func(t *testing.T, d *DualLayer, release chan struct{}) {
				parkInline(t, d, false, release)
				parkInline(t, d, false, release)
			},
			accepted: true, queued: true,
		},
		{
			name: "closed",
			setup: func(t *testing.T, d *DualLayer, release chan struct{}) {
				d.Close()
			},
		},
		{
			name:  "write over the ceiling",
			cfg:   Config{WriteCeilingBucket: quota.NewBucket(1, 1, nil)},
			write: true,
		},
		{name: "done ctx", ctxDone: true, accepted: true, aborts: true},
		{
			name: "basic I/O slot busy",
			cfg:  Config{BasicIOThreads: 1},
			setup: func(t *testing.T, d *DualLayer, release chan struct{}) {
				parkInline(t, d, true, release)
			},
			miss: true, accepted: true, cpuRan: true, ioToWorker: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := newDualLayer(tc.cfg)
			if !tc.noWorkers {
				d = NewDualLayer(tc.cfg)
			}
			release := make(chan struct{})
			if tc.setup != nil {
				tc.setup(t, d, release)
			}
			p := newProbe()
			tk := p.task("T", tc.miss)
			if tc.write {
				tk.Class = SmallWrite
			}
			if tc.ctxDone {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				tk.Ctx = ctx
			}
			before, dequeuedBefore := d.Stats(), d.dequeued.Load()
			accepted := d.Run(tk)
			cpuRan, ioRan, doneRan := p.cpu.Load() == 1, p.io.Load() == 1, p.done.Load() == 1
			if accepted != tc.accepted {
				t.Fatalf("Run = %v, want %v", accepted, tc.accepted)
			}
			if cpuRan != tc.cpuRan || ioRan != tc.ioRan || doneRan != tc.doneOnReturn {
				t.Errorf("on return: CPU stage ran %v, I/O stage %v, Done %v; want %v, %v, %v",
					cpuRan, ioRan, doneRan, tc.cpuRan, tc.ioRan, tc.doneOnReturn)
			}
			if tc.aborts {
				select {
				case err := <-p.abort:
					if !errors.Is(err, context.Canceled) {
						t.Errorf("Abort err = %v, want context.Canceled", err)
					}
				default:
					t.Error("a done Ctx did not resolve through Abort")
				}
			}
			if tc.doneOnReturn {
				if st := d.Stats(); st.Completed != before.Completed+1 || d.dequeued.Load() != dequeuedBefore {
					t.Errorf("stats %+v after %+v, %d dequeues after %d: want one more completion and no dequeue",
						st, before, d.dequeued.Load(), dequeuedBefore)
				}
			}
			if st := d.Stats(); tc.queued && st.CPUQueued != before.CPUQueued+1 {
				t.Errorf("stats %+v after %+v: the task did not queue", st, before)
			}
			if tc.noWorkers {
				// A worker's steps take the task queued ahead first.
				for _, want := range []string{"ahead", "T"} {
					if got := take(d, cpuLayer); got == nil || got.Tenant != want {
						t.Fatalf("a worker's step took %+v, want tenant %s's task", got, want)
					}
				}
			}
			close(release)
			d.Close() // a queued task or stage is served before Close returns
			served := p.done.Load() == 1 && d.dequeued.Load() > dequeuedBefore
			if tc.ioToWorker && (p.io.Load() != 1 || !served) {
				t.Errorf("the queued I/O stage ran %d times, dequeued by a worker: %v", p.io.Load(), served)
			}
			if tc.queued && !tc.noWorkers && !served {
				t.Error("a worker did not serve the queued task")
			}
			if !tc.accepted && (p.cpu.Load() != 0 || p.done.Load() != 0) {
				t.Error("a task Run refused ran anyway")
			}
		})
	}
}

// TestRunAccountsVFTLikeAQueue: a run of inline tasks leaves each
// layer's per-tenant preVFT and virtual time exactly where pushing and
// popping the same tasks would have.
func TestRunAccountsVFTLikeAQueue(t *testing.T) {
	d := NewDualLayer(Config{})
	defer d.Close()
	ref := newTestQueue() // a worker-less layer: its CPU queue and, below, its I/O queue
	ioRef := testQueue{ref.d, &ref.d.q[ioLayer]}
	tenants := []struct {
		name  string
		share float64
	}{{"A", 0.5}, {"B", 0.3}, {"C", 0.2}}
	for i := 0; i < 60; i++ {
		tn := tenants[i%3]
		if i < 30 && tn.name == "C" {
			tn = tenants[0] // C arrives late: it re-enters at the virtual time
		}
		ru, iops, miss := float64(1+i%4), float64(1+i%3), i%2 == 0
		tk := &Task{Tenant: tn.name, QuotaShare: tn.share, RUCost: ru, IOPSCost: iops,
			CPUStage: func() bool { return miss }, IOStage: func() {}}
		if !d.Run(tk) {
			t.Fatalf("task %d: Run refused on an idle layer", i)
		}
		rt := &Task{Tenant: tn.name, QuotaShare: tn.share}
		ref.push(rt, ru)
		ref.pop("")
		if miss {
			ioRef.push(rt, iops)
			ioRef.pop("")
		}
	}
	d.mu.Lock()
	for _, c := range []struct {
		layer    string
		got, ref *queue
	}{{"CPU", &d.q[cpuLayer], ref.queue}, {"I/O", &d.q[ioLayer], ioRef.queue}} {
		got, want := preVFTs(d, c.got.layer), preVFTs(ref.d, c.ref.layer)
		if !maps.Equal(got, want) || c.got.vtime != c.ref.vtime {
			t.Errorf("%s layer: preVFT %v vtime %v, want %v and %v", c.layer, got, c.got.vtime, want, c.ref.vtime)
		}
	}
	d.mu.Unlock()
	if st := d.Stats(); d.dequeued.Load() != 0 || st.Completed != 60 {
		t.Errorf("stats %+v, %d dequeues: want 60 completions, none dequeued", st, d.dequeued.Load())
	}
}

// TestRunStressRespectsSlots mixes Submit and Run from many
// goroutines (run it under -race): inline runs and workers together
// never exceed CPUWorkers concurrent CPU stages or BasicIOThreads
// concurrent basic I/O stages, and every task completes once.
func TestRunStressRespectsSlots(t *testing.T) {
	const cpuSlots, ioSlots, numCallers, perCaller = 2, 1, 8, 300
	// One tenant: Rule 4 spawns no extra thread, so every I/O stage runs
	// in a basic slot.
	d := NewDualLayer(Config{CPUWorkers: cpuSlots, BasicIOThreads: ioSlots})
	var cpuNow, cpuMax, ioNow, ioMax, inline atomic.Int64
	enter := func(now, peak *atomic.Int64) {
		n := now.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
		runtime.Gosched()
		now.Add(-1)
	}
	var callers sync.WaitGroup
	for c := 0; c < numCallers; c++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			// Each caller waits for its task, as a DataNode request does.
			for i := 0; i < perCaller; i++ {
				miss, done := i%2 == 0, make(chan struct{})
				tk := &Task{Tenant: "T", QuotaShare: 1, RUCost: 1, IOPSCost: 1,
					CPUStage: func() bool { enter(&cpuNow, &cpuMax); return miss },
					IOStage:  func() { enter(&ioNow, &ioMax) },
					Done:     func() { close(done) },
				}
				put := d.Submit
				if (c+i)%2 == 0 {
					put = d.Run
				}
				if !put(tk) {
					t.Error("a task refused on an open layer")
					return
				}
				select {
				case <-done:
					inline.Add(1) // done on return: it ran on its caller
				default:
					<-done
				}
			}
		}()
	}
	callers.Wait()
	d.Close()
	st := d.Stats()
	if cpuMax.Load() > cpuSlots || ioMax.Load() > ioSlots {
		t.Errorf("peak concurrency: %d CPU stages (slots %d), %d I/O stages (slots %d)", cpuMax.Load(), cpuSlots, ioMax.Load(), ioSlots)
	}
	if st.Completed != numCallers*perCaller || st.ExtraSpawns != 0 {
		t.Errorf("stats %+v: want %d completions and no extra thread", st, numCallers*perCaller)
	}
	dequeued := d.dequeued.Load()
	t.Logf("%d tasks done on return, %d dequeues; peak %d CPU, %d I/O stages", inline.Load(), dequeued, cpuMax.Load(), ioMax.Load())
	if inline.Load() == 0 || dequeued == 0 {
		t.Errorf("%d tasks done on return, %d dequeues: the stress did not mix both paths", inline.Load(), dequeued)
	}
}

// TestCloseWaitsForInlineRuns: Close does not return while a Run is
// still in its CPU or I/O stage — the owner of the stage's resources
// (a DataNode closing its engines) relies on it.
func TestCloseWaitsForInlineRuns(t *testing.T) {
	for _, io := range []bool{false, true} {
		d := NewDualLayer(Config{})
		release := make(chan struct{})
		parkInline(t, d, io, release)
		closed := make(chan struct{})
		go func() {
			d.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatalf("io=%v: Close returned while an inline run was in its stage", io)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
	}
}

// TestCloseWakesWorkersWaitingForASlot: workers that wait for a slot
// held by inline runs while the layer closes must still exit once the
// last queued stage is served — Close returns. Each layer in turn: both
// of its slots parked, one task queued behind them. The task goes in by
// Run, which queues it in the layer whose slots are held — straight away
// for the CPU layer, after running its CPU stage on the test goroutine
// for the I/O layer — before it returns.
func TestCloseWakesWorkersWaitingForASlot(t *testing.T) {
	for _, io := range []bool{false, true} {
		d := NewDualLayer(Config{CPUWorkers: 2, BasicIOThreads: 2})
		first, second := make(chan struct{}), make(chan struct{})
		parkInline(t, d, io, first)
		parkInline(t, d, io, second)
		done := make(chan struct{})
		d.Run(&Task{Tenant: "T", QuotaShare: 1, RUCost: 1, IOPSCost: 1,
			CPUStage: func() bool { return io }, IOStage: func() {}, Done: func() { close(done) }})
		if st := d.Stats(); st.CPUQueued+st.IOQueued != 1 || (st.IOQueued == 1) != io {
			t.Fatalf("io=%v: stats %+v: the task did not queue behind the held slots", io, st)
		}
		closed := make(chan struct{})
		go func() {
			d.Close()
			close(closed)
		}()
		for !d.closed.Load() { // Close has marked the layer closed
			runtime.Gosched()
		}
		close(first) // a worker takes the freed slot and serves the task
		<-done
		close(second) // the other worker's slot frees with nothing left to serve
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("io=%v: Close never returned: a waiting worker missed the wake-up to exit", io)
		}
	}
}

// TestTaskUntouchedAfterResolve: resolving a task — Done, or Abort for
// a shed one — is the scheduler's last access to it, because whoever
// the resolution wakes may reuse the Task at once (the DataNode pools
// its point ops). Here Done and Abort zero the Task they resolve, which
// stands in for that reuse. On every path the slot counts must then be
// exactly where the tasks left them — nothing held, nothing queued —
// when the last resolution arrives.
//
//	go test -race -count=20 -run TestTaskUntouchedAfterResolve ./internal/wfq
func TestTaskUntouchedAfterResolve(t *testing.T) {
	type env struct {
		d        *DualLayer
		resolved chan string
	}
	// task is a task of tenant whose CPU stage reports miss and then, on
	// a miss, whose I/O stage runs io; ctx may be nil.
	task := func(e env, tenant string, miss bool, ctx context.Context, io func()) *Task {
		tk := &Task{Tenant: tenant, QuotaShare: 1, RUCost: 1, IOPSCost: 1, Ctx: ctx,
			CPUStage: func() bool { return miss }, IOStage: io}
		tk.Done = func() { *tk = Task{}; e.resolved <- tenant + " done" }
		tk.Abort = func(error) { *tk = Task{}; e.resolved <- tenant + " aborted" }
		return tk
	}
	noop := func() {}
	// blocked returns an I/O stage that holds its slot until release is
	// closed, and a channel closed once it holds it.
	blocked := func() (io func(), holding, release chan struct{}) {
		holding, release = make(chan struct{}), make(chan struct{})
		return func() { close(holding); <-release }, holding, release
	}
	// runInline runs tk on an idle layer, on the test goroutine.
	runInline := func(t *testing.T, e env, tk *Task) {
		t.Helper()
		if !e.d.Run(tk) || e.d.dequeued.Load() != 0 {
			t.Fatal("an idle layer did not run the task inline")
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// run starts the path's tasks and returns how they must resolve.
		run func(t *testing.T, e env) []string
	}{
		{"inline Run, hit", Config{}, func(t *testing.T, e env) []string {
			runInline(t, e, task(e, "a", false, nil, noop))
			return []string{"a done"}
		}},
		{"inline Run, miss", Config{}, func(t *testing.T, e env) []string {
			runInline(t, e, task(e, "a", true, nil, noop))
			return []string{"a done"}
		}},
		{"Submit through both layers", Config{}, func(t *testing.T, e env) []string {
			e.d.Submit(task(e, "a", true, nil, noop))
			return []string{"a done"}
		}},
		{"canceled while queued in the CPU-WFQ", Config{CPUWorkers: 1}, func(t *testing.T, e env) []string {
			holding, release := make(chan struct{}), make(chan struct{})
			blocker := task(e, "a", false, nil, nil)
			blocker.CPUStage = func() bool { close(holding); <-release; return false }
			e.d.Submit(blocker)
			<-holding
			ctx, cancel := context.WithCancel(context.Background())
			e.d.Submit(task(e, "a", false, ctx, noop))
			cancel()
			close(release)
			return []string{"a done", "a aborted"}
		}},
		{"canceled while queued in the I/O-WFQ", Config{BasicIOThreads: 1, ExtraIOThreads: -1}, func(t *testing.T, e env) []string {
			io, holding, release := blocked()
			e.d.Submit(task(e, "a", true, nil, io))
			<-holding
			// Run takes the second task's CPU stage on the test
			// goroutine and queues its I/O stage behind the held slot
			// before it returns.
			ctx, cancel := context.WithCancel(context.Background())
			e.d.Run(task(e, "a", true, ctx, noop))
			if n := e.d.Stats().IOQueued; n != 1 {
				t.Fatalf("%d tasks queued for I/O, want 1", n)
			}
			cancel()
			close(release)
			return []string{"a done", "a aborted"}
		}},
		{"Rule 4 extra worker", Config{BasicIOThreads: 1, ExtraIOThreads: 1}, func(t *testing.T, e env) []string {
			io, holding, release := blocked()
			e.d.Submit(task(e, "hog", true, nil, io))
			<-holding
			b := task(e, "b", true, nil, noop)
			resolve, served := b.Done, make(chan struct{})
			b.Done = func() { resolve(); close(served) }
			e.d.Submit(b)
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("the second tenant's task did not complete while the hog held the basic slot")
			}
			if e.d.Stats().ExtraSpawns != 1 {
				t.Fatal("no extra worker served the second tenant")
			}
			close(release)
			return []string{"b done", "hog done"}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := env{d: NewDualLayer(tc.cfg), resolved: make(chan string, 4)}
			defer e.d.Close()
			want := tc.run(t, e)
			var got []string
			for range want {
				select {
				case r := <-e.resolved:
					got = append(got, r)
				case <-time.After(5 * time.Second):
					t.Fatalf("resolved %q, want %q", got, want)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("resolved %q, want %q", got, want)
			}
			d := e.d
			d.mu.Lock()
			cpu, io := slotsHeld(d)
			cpuTotal, ioTotal := d.cpuTotal.Load(), d.ioBusyTotal
			serving := len(d.ioFlows)
			d.mu.Unlock()
			if len(cpu) != 0 || len(io) != 0 || cpuTotal != 0 || ioTotal != 0 || serving != 0 {
				t.Errorf("after the last resolution: CPU slots %v (total %d), basic I/O slots %v (total %d, %d flows served), want none held",
					cpu, cpuTotal, io, ioTotal, serving)
			}
			st := e.d.Stats()
			if st.CPUQueued != 0 || st.IOQueued != 0 {
				t.Errorf("stats %+v: tasks still queued", st)
			}
			if st.Completed != int64(len(want)) {
				t.Errorf("%d tasks counted completed, want %d", st.Completed, len(want))
			}
		})
	}
}

// testQueue is the CPU queue of a worker-less layer, taking tasks that
// name only their tenant: push binds each to its tenant's flow as
// Submit does, and pop skips a tenant by name.
type testQueue struct {
	d *DualLayer
	*queue
}

func newTestQueue() testQueue {
	d := newDualLayer(Config{})
	return testQueue{d, &d.q[cpuLayer]}
}

func (q testQueue) push(t *Task, cost float64) {
	q.d.mu.Lock()
	defer q.d.mu.Unlock()
	q.d.bindLocked(t)
	q.queue.push(t, cost)
}

func (q testQueue) pop(skip string) *Task {
	q.d.mu.Lock()
	defer q.d.mu.Unlock()
	var f *flow
	if skip != "" {
		f = q.d.flowLocked(skip)
	}
	return q.queue.pop(f)
}

// preVFTs is every tenant's preVFT in one layer of d, by tenant.
// +locked:d.mu
func preVFTs(d *DualLayer, layer int) map[string]float64 {
	out := make(map[string]float64)
	for name, f := range d.flows {
		out[name] = f.preVFT[layer]
	}
	return out
}

// slotsHeld is the CPU and basic I/O slots each flow of d holds, by
// tenant, leaving out flows that hold none: the per-tenant books Rules
// 3 and 4 read.
// +locked:d.mu
func slotsHeld(d *DualLayer) (cpu, io map[string]int) {
	cpu, io = make(map[string]int), make(map[string]int)
	for name, f := range d.flows {
		if n := f.cpu.Load(); n != 0 {
			cpu[name] = int(n)
		}
		if f.io != 0 {
			io[name] = f.io
		}
	}
	return cpu, io
}
