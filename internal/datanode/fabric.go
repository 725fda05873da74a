package datanode

// This file is the replication fabric: the asynchronous channel a
// partition primary's committed writes travel through to its followers.
// It belongs to the data plane — a primary replicates to the peer set
// the control plane last PUSHED to it (Node.SetRoute), so an
// acknowledged write consults no routing table, takes no control-plane
// lock and resolves no node id.

import (
	"hash/fnv"
	"io"
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
	// write path.
	laneDepth = 1024
)

// replJob is one replication message for one follower: the ops a
// primary committed together (one for a point write) and pos, the
// primary's replication position after the last of them, which the
// follower adopts monotonically.
type replJob struct {
	node *Node
	pid  partition.ID
	msg  *replMsg
	pos  uint64
}

// replMsg is what a message's jobs share: the ops, whose bytes are the
// primary's memtable pages, and the pin on those pages, released when
// the last follower has applied or dropped its job.
type replMsg struct {
	ops  []WriteOp
	pin  lavastore.Pin
	left atomic.Int32 // jobs not yet applied or dropped
	one  [1]WriteOp   // backs ops for a point write
}

// done counts one job as applied or dropped.
func (m *replMsg) done() {
	if m.left.Add(-1) == 0 {
		m.pin.Release()
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
	lane chan<- replJob
}

// Fabric carries replication messages from primaries to followers. One
// fabric serves a whole cluster; nodes reach it as their Replicator.
type Fabric struct {
	lanes [fabricLanes]chan replJob
	stop  chan struct{} // closed by Close; lanes themselves never close
	once  sync.Once
	wg    sync.WaitGroup

	// enq/done count messages enqueued and applied; Flush waits for done
	// to reach the enq it saw when called. closed is set once the workers
	// have drained and exited.
	mu     sync.Mutex
	cond   *sync.Cond
	enq    uint64
	done   uint64
	closed bool
}

// NewFabric starts a fabric's lane workers.
func NewFabric() *Fabric {
	f := &Fabric{stop: make(chan struct{})}
	f.cond = sync.NewCond(&f.mu)
	for i := range f.lanes {
		f.lanes[i] = make(chan replJob, laneDepth)
		f.wg.Add(1)
		go f.work(f.lanes[i])
	}
	return f
}

// Peer binds follower n of partition pid to its lane. The control
// plane resolves peers once per route change; writes only read them.
func (f *Fabric) Peer(pid partition.ID, n *Node) Peer {
	h := fnv.New32a()
	io.WriteString(h, pid.String())
	io.WriteString(h, "/"+n.ID())
	return Peer{node: n, lane: f.lanes[h.Sum32()%fabricLanes]}
}

func (f *Fabric) work(lane <-chan replJob) {
	defer f.wg.Done()
	for {
		select {
		case job := <-lane:
			f.apply(job)
		case <-f.stop:
			for { // drain what was queued before the stop
				select {
				case job := <-lane:
					f.apply(job)
				default:
					return
				}
			}
		}
	}
}

func (f *Fabric) apply(job replJob) {
	// Best effort: eventual consistency tolerates transient errors (a
	// down follower drops its deltas; revival and repair rebuild it).
	_ = job.node.ApplyReplicated(job.pid, job.pos, job.msg.ops...)
	job.msg.done()
	f.finish()
}

// finish counts one message as applied, failed or dropped.
func (f *Fabric) finish() {
	f.mu.Lock()
	f.done++
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Replicate implements Replicator: the ops travel as one message per
// peer and are applied there as one group commit. The peers share the
// ops' bytes where the primary's memtable holds them, read-only, and the
// last one to apply or drop its message releases pin.
func (f *Fabric) Replicate(rid partition.ReplicaID, to []Peer, ops []WriteOp, pos uint64, pin lavastore.Pin) {
	if len(to) == 0 {
		pin.Release()
		return
	}
	m := &replMsg{pin: pin}
	m.ops = append(m.one[:0], ops...)
	m.left.Store(int32(len(to)))
	f.mu.Lock()
	f.enq += uint64(len(to))
	f.mu.Unlock()
	for _, p := range to {
		select {
		case p.lane <- replJob{node: p.node, pid: rid.Partition, msg: m, pos: pos}:
		case <-f.stop:
			m.done()
			f.finish()
		}
	}
}

// Flush blocks until every message enqueued BEFORE the call has been
// applied (or failed against a down follower). The wait is a drain
// marker, not a quiescence wait: messages enqueued by writes that keep
// flowing do not extend it, so a promotion cannot stall behind
// unrelated traffic. A closed fabric has nothing left to wait for.
func (f *Fabric) Flush() {
	f.mu.Lock()
	for target := f.enq; f.done < target && !f.closed; {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Close stops the workers after they drain what is queued. A write
// that races it may be acknowledged without being replicated: the
// cluster is shutting down.
func (f *Fabric) Close() {
	f.once.Do(func() {
		close(f.stop)
		f.wg.Wait()
		f.mu.Lock()
		f.closed = true
		f.cond.Broadcast()
		f.mu.Unlock()
	})
}
