package datanode

// This file is the replication fabric: the asynchronous channel a
// partition primary's committed writes travel through to its followers.
// It belongs to the data plane — a primary replicates to the peer set
// the control plane last PUSHED to it (Node.SetRoute), so an
// acknowledged write consults no routing table, takes no control-plane
// lock and resolves no node id. A message travels by value, one job per
// follower, each holding its own reference on the primary's memtable
// pages, so a replicated point write allocates nothing and takes no
// fabric-wide lock. A point write whose lane is idle is applied on the
// follower by the writer itself, before its Replicate returns: handing
// it to the lane's worker would cost a goroutine wake-up per write. The
// trade: a stalled follower holds the one write that found its lane
// idle (the lane then counts as busy, so every later write to it queues
// and returns), and a follower flush or compaction that apply sets off
// runs on the writer, as the primary's own does. Group commits always
// queue. Flush is a marker queued behind each lane, so it waits for
// exactly the messages queued before it.

import (
	"slices"
	"sync"
	"sync/atomic"

	"abase/internal/lavastore"
	"abase/internal/partition"
)

const (
	// fabricLanes is the number of FIFO lanes, each drained by one worker.
	fabricLanes = 4
	// laneDepth is how many replication messages a lane buffers before a
	// primary's acknowledgement waits for its followers: deep enough that
	// a flush or compaction stall on one follower does not reach the
	// write path beyond the one point write that found the lane idle and
	// is applying inline; every later write to that lane queues.
	laneDepth = 1024
)

// replJob is one replication message for one follower, or a Flush
// marker (mark set, nothing else). A message is the ops a primary
// committed together and pos, the primary's replication position after
// the last of them, which the follower adopts monotonically. A point
// write's op travels in op; a group commit's ops are one read-only copy
// its jobs share. The ops' bytes are the primary's memtable pages, and
// pin is this job's own reference on them.
type replJob struct {
	node *Node
	pid  partition.ID
	pos  uint64
	op   WriteOp
	ops  []WriteOp // nil for a point write
	pin  lavastore.Pin
	mark chan<- struct{}
}

// lane is one FIFO lane and n, the count of every job it holds: queued
// or running, inline applies and Flush markers included. A point write
// runs inline only when it claims n at 0, so nothing is ahead of it.
// A lane closes itself: a sender holds mu's read side across its send,
// and close takes the write side, so no send meets a closed channel.
// The pad keeps each lane's count off its neighbours' cache line.
type lane struct {
	jobs   chan replJob
	n      atomic.Int64
	mu     sync.RWMutex
	closed bool
	_      [16]byte
}

// queue counts job into the lane and sends it, or, once the lane is
// closed, drops it and reports false.
func (l *lane) queue(job replJob) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return false
	}
	l.n.Add(1)
	l.jobs <- job
	return true
}

// close stops the lane taking jobs; its worker drains what is queued.
func (l *lane) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.jobs)
	}
}

// Peer is one follower of a partition as its primary sees it: the node
// and the lane its replication messages queue in. A (partition,
// follower) pair always maps to the same lane, so the applies to one
// follower replica run in enqueue order — were they spread over several
// workers, two writes to one key could land reversed and leave the
// follower holding the older value under a position that claims
// otherwise.
type Peer struct {
	node *Node
	lane *lane
}

// Fabric carries replication messages from primaries to followers. One
// fabric serves a whole cluster; nodes reach it as their Replicator.
type Fabric struct {
	lanes [fabricLanes]lane
	wg    sync.WaitGroup
}

// NewFabric starts a fabric's lane workers.
func NewFabric() *Fabric {
	f := &Fabric{}
	for i := range f.lanes {
		f.lanes[i].jobs = make(chan replJob, laneDepth)
		f.wg.Add(1)
		go f.work(&f.lanes[i])
	}
	return f
}

// Peer binds follower n of partition pid to its lane. The control
// plane resolves peers once per route change; writes only read them.
func (f *Fabric) Peer(pid partition.ID, n *Node) Peer {
	h := partition.Hash([]byte(pid.String() + "/" + n.ID()))
	return Peer{node: n, lane: &f.lanes[h%fabricLanes]}
}

// work applies l's jobs in order until the lane is closed and drained.
func (f *Fabric) work(l *lane) {
	defer f.wg.Done()
	for job := range l.jobs {
		job.run()
		l.n.Add(-1)
	}
}

// run applies the job's message on its follower and lets its pages go,
// or signals a marker.
func (job *replJob) run() {
	if job.mark != nil {
		job.mark <- struct{}{}
		return
	}
	// Best effort: eventual consistency tolerates transient errors (a
	// down follower drops its deltas; revival and repair rebuild it).
	if job.ops != nil {
		_ = job.node.ApplyReplicated(job.pid, job.pos, job.ops...)
	} else {
		_ = job.node.ApplyReplicated(job.pid, job.pos, job.op)
	}
	job.pin.Release()
}

// Replicate implements Replicator: the ops travel as one message per
// peer and are applied there as one group commit. The peers share the
// ops' bytes where the primary's memtable holds them, read-only, each
// job holding one reference of pin, released once it is applied or
// dropped. A point write's job whose lane is idle is applied here, on
// the caller, so the caller must hold no lock a follower's apply could
// need; a group commit's jobs always queue.
func (f *Fabric) Replicate(rid partition.ReplicaID, to []Peer, ops []WriteOp, pos uint64, pin lavastore.Pin) {
	if len(to) == 0 {
		pin.Release()
		return
	}
	pin.Share(len(to) - 1)
	job := replJob{pid: rid.Partition, pos: pos, pin: pin}
	if len(ops) == 1 {
		job.op = ops[0]
	} else {
		job.ops = slices.Clone(ops)
	}
	for _, p := range to {
		job.node = p.node
		switch {
		case job.ops == nil && p.lane.n.CompareAndSwap(0, 1):
			job.run()
			p.lane.n.Add(-1)
		case !p.lane.queue(job):
			pin.Release()
		}
	}
}

// Flush queues a marker behind every lane and blocks until each lane's
// worker has reached it; a Flush that finds a lane closed returns at
// once. A lane drains before its worker exits, so a queued marker is
// always reached. So every message whose Replicate returned before
// Flush was called has been applied (or dropped against a down
// follower) when Flush returns — an inline one was applied before its
// Replicate returned — and a write is acknowledged only after its
// Replicate returned. Messages queued by writes that keep flowing land
// behind the markers and do not extend the wait, so a promotion cannot
// stall behind unrelated traffic; a write still inside Replicate when
// Flush is called is not covered.
func (f *Fabric) Flush() {
	reached := make(chan struct{}, fabricLanes)
	for i := range f.lanes {
		if !f.lanes[i].queue(replJob{mark: reached}) {
			return
		}
	}
	for range f.lanes {
		<-reached
	}
}

// Close closes every lane and waits for the workers to drain what is
// queued and exit. A write that races it may be acknowledged without
// being replicated: the cluster is shutting down.
func (f *Fabric) Close() {
	for i := range f.lanes {
		f.lanes[i].close()
	}
	f.wg.Wait()
}
