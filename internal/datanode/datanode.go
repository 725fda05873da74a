package datanode

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/cache"
	"abase/internal/clock"
	"abase/internal/hotspot"
	"abase/internal/lavastore"
	"abase/internal/metrics"
	"abase/internal/partition"
	"abase/internal/quota"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// ErrThrottled is returned when a request exceeds the partition quota
// and is rejected at the request-queue entry point (§4.2).
var ErrThrottled = errors.New("datanode: partition quota exceeded")

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("datanode: key not found")

// ErrNoPartition is returned when the node does not host the replica.
var ErrNoPartition = errors.New("datanode: partition not hosted here")

// ErrNodeDown is returned by every operation while the node is marked
// down (crash or network partition, injected by the fault harness or
// declared by the control plane). Proxies treat it as a routing signal:
// report the node, refresh routes, retry once.
var ErrNodeDown = errors.New("datanode: node down")

// ErrNotPrimary is returned when a write reaches a replica that is not
// the partition's primary — either a follower, or a primary that has
// been demoted (fenced) by a failover. The proxy refreshes its route
// cache and retries against the new primary.
var ErrNotPrimary = errors.New("datanode: not the primary replica")

// ErrStaleEpoch is returned when a write carries a route epoch that
// does not match the replica's configured epoch: one of the two (the
// proxy's route cache or this replica) missed a primary change. The
// proxy refreshes its routes and retries.
var ErrStaleEpoch = errors.New("datanode: stale route epoch")

// ErrClosed is returned when the node turns a request away because it
// is shutting down — or, for a write, because the WFQ's write-RU
// ceiling refused it: either way the request provably did no work, and
// whatever admission charged for it has been refunded.
var ErrClosed = errors.New("datanode: closed")

// ErrDeadlineShed is returned when deadline-aware admission sheds a
// request before enqueueing it: the caller's remaining deadline budget
// was smaller than the node's estimated queue wait, so serving it
// would have spent queue slots, admit cost, and RU on a response the
// caller could no longer use. It matches
// errors.Is(err, context.DeadlineExceeded).
var ErrDeadlineShed = fmt.Errorf("datanode: request shed, deadline tighter than estimated queue wait: %w", context.DeadlineExceeded)

// CostModel holds the simulated service times that make cache hits and
// misses consume different resources (Challenge 1). Durations are
// slept on the node's clock inside the WFQ stages; a zero duration burns
// nothing, so the zero CostModel simulates no service time at all.
type CostModel struct {
	// CPUTime is the CPU-stage service time for every request.
	CPUTime time.Duration
	// IOReadTime is the I/O-stage service time per disk read.
	IOReadTime time.Duration
	// IOWriteTime is the I/O-stage service time per disk write.
	IOWriteTime time.Duration
}

// Every node's nominal capacities, which Snapshot reports for the
// rescheduler's accounting.
const (
	ruCapacity   = 100_000
	diskCapacity = 1 << 40
)

// Config configures a DataNode.
type Config struct {
	// ID names the node.
	ID string
	// Clock defaults to the real clock.
	Clock clock.Clock
	// FS backs the LavaStore instances. Defaults to one shared MemFS.
	FS lavastore.FS
	// CacheBytes sizes the node's SA-LRU cache. Default 64 MiB.
	CacheBytes int64
	// WFQ tunes the four dual-layer WFQs.
	WFQ wfq.Config
	// Cost is the simulated service-time model (zero: none).
	Cost CostModel
	// Replicas is the replication factor used for write RU (r·RU).
	Replicas int
	// RejectCost is the CPU time the node burns rejecting a throttled
	// request (parsing, queueing, and error response). The Figure 6
	// experiment shows this overhead starving co-tenants when a burst
	// is not intercepted at the proxy.
	RejectCost time.Duration
	// AdmitWorkers is the number of admission slots: requests taking
	// their admission step at once (default 2).
	AdmitWorkers int
	// AdmitQueueCap bounds the request queue; arrivals beyond it fail
	// with ErrOverloaded (default 1024).
	AdmitQueueCap int
	// AdmitCost is the per-request queue processing time (zero: none).
	AdmitCost time.Duration
	// HotSampleRate records one in every N key accesses in the
	// heavy-hitter sketch, keeping the hot path cheap (default 4;
	// 1 records every access). Partition heat meters always count.
	HotSampleRate int
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.FS == nil {
		c.FS = lavastore.NewMemFS()
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.HotSampleRate <= 0 {
		c.HotSampleRate = 4
	}
	return c
}

// Replicator propagates committed writes to follower replicas on other
// nodes: ops (one for a point write, the committed ops of a group
// commit for a batch) travel as one replication message to each peer in
// to — the follower set the control plane last pushed to the replica
// (SetRoute). Implementations must not block the caller for long —
// ABase replication is asynchronous (eventual consistency) — but may
// apply on an idle follower on the caller's goroutine, which holds no
// lock (Fabric does so for a point write). The ops'
// keys and values are the primary's memtable pages, which pin keeps from
// reuse: an implementation reads them until it releases pin, exactly
// once, and copies what it keeps past that. The ops slice itself
// belongs to the caller. pos is the primary's replication position after
// the last op: followers adopt it monotonically, which keeps positions
// comparable across replicas — a rebuilt follower does not restart from
// zero and a long-dead one cannot look fresher than it is. The cluster's
// implementation is Fabric.
type Replicator interface {
	Replicate(rid partition.ReplicaID, to []Peer, ops []WriteOp, pos uint64, pin lavastore.Pin)
}

// NopReplicator discards replication traffic (single-node tests).
type NopReplicator struct{}

// Replicate implements Replicator.
func (NopReplicator) Replicate(_ partition.ReplicaID, _ []Peer, _ []WriteOp, _ uint64, pin lavastore.Pin) {
	pin.Release()
}

// replica is one hosted partition replica.
// ruLedger is the cumulative quota charge/refund total retained for a
// tenant after its replicas leave this node.
type ruLedger struct {
	charged  float64
	refunded float64
}

type replica struct {
	id partition.ReplicaID
	// part is id.Partition.String(): the WFQ partition name and the
	// partition half of a cache key, rendered once.
	part string
	// dir is the engine's directory on the node's FS; RemoveReplica
	// empties it.
	dir     string
	db      *lavastore.DB
	limiter *quota.PartitionLimiter
	// writeGate orders client writes on this replica: a write op that
	// reads before it writes holds it exclusively from the read to the
	// commit, blind writes share it (see writeOp.io).
	writeGate sync.RWMutex
	// writes counts the commits on this replica, each bumped after its
	// commit and before it writes through to or invalidates the SA-LRU:
	// a read whose fill finds it moved since the read began may hold an
	// older value than the cache's, and does not fill (see readOp.io).
	writes atomic.Uint64
	// ts is the owning tenant's node-wide state, resolved when the
	// replica is added so no request looks it up.
	ts *tenantStats
	// quotaRU is the partition quota (changed by SetPartitionQuota while
	// requests read it for their WFQ weight).
	quotaRU metrics.Gauge
	// route is what the control plane last pushed for this replica (see
	// SetRoute). It changes at runtime — promotion, fencing, follower
	// moves — while reads and writes are in flight, so it is swapped as
	// one value: a write never sees a role from one push and an epoch or
	// peer set from another.
	route atomic.Pointer[replicaRoute]
	// replPos counts the write operations applied to this replica's
	// store (local writes on the primary, replicated applies on
	// followers). The difference between a primary's and a follower's
	// position bounds the follower's staleness, which gates both
	// follower reads and failover promotion.
	replPos atomic.Uint64
	// hot tracks the replica's heavy-hitter keys (sampled); heat is the
	// exact decayed access rate that drives splits and rescheduling.
	hot  *hotspot.Detector
	heat *hotspot.Meter
	// Change-stream state (see changes.go). watchMu guards the commit
	// watchers and is taken from the engine's commit hook (under the
	// engine lock), so code holding it must NEVER call into the engine;
	// holdMu guards the retention holds and may nest engine calls.
	watchMu  sync.Mutex
	watchers map[int]chan struct{}
	watchN   int
	holdMu   sync.Mutex
	holds    map[string]changeHold
}

// replicaRoute is one pushed route as the replica sees it: its role,
// the route epoch, and — on the primary — the followers its writes
// replicate to.
type replicaRoute struct {
	primary bool
	epoch   uint64
	peers   []Peer
}

// isPrimary reports whether this replica currently serves writes.
func (r *replica) isPrimary() bool { return r.route.Load().primary }

// advancePos raises the replica's replication position to pos (never
// lowers it) — the follower half of position propagation.
func (r *replica) advancePos(pos uint64) {
	for {
		cur := r.replPos.Load()
		if pos <= cur || r.replPos.CompareAndSwap(cur, pos) {
			return
		}
	}
}

// checkWrite fences the write path: only the current primary accepts
// writes, and a caller-supplied route epoch (non-zero) must match the
// replica's configured epoch exactly — a mismatch in either direction
// means someone missed a primary change.
func (r *replica) checkWrite(epoch uint64) error {
	cur := r.route.Load()
	if !cur.primary {
		return fmt.Errorf("%w: %s", ErrNotPrimary, r.id.Partition)
	}
	if epoch != 0 && epoch != cur.epoch {
		return fmt.Errorf("%w: request %d, replica %d", ErrStaleEpoch, epoch, cur.epoch)
	}
	return nil
}

// tenantStats is one tenant's state on this node: its observability
// counters and its RU estimator. It outlives the tenant's replicas.
type tenantStats struct {
	// reqs tallies the tenant's requests, one cell per P (Refused counts
	// partition-quota throttles, Hits and Misses the SA-LRU).
	reqs *metrics.Striped[metrics.Requests]
	est  *ru.Estimator
}

// Node is a DataNode instance.
type Node struct {
	cfg   Config
	cache *cache.SALRU
	sched *wfq.Scheduler
	admit *admission

	mu       sync.RWMutex
	replicas map[partition.ID]*replica
	tenants  map[string]*tenantStats
	// retired accumulates the quota charge/refund ledger of removed
	// replicas so a tenant's cumulative RU accounting stays monotone
	// across migrations and decommissions.
	retired map[string]ruLedger
	closed  bool

	// quotaSum is the sum of the hosted replicas' partition quotas,
	// recomputed wherever one changes (AddReplica, RemoveReplica,
	// SetPartitionQuota) so a request reads its WFQ share without a lock.
	quotaSum   metrics.Gauge
	replicator atomic.Pointer[Replicator]

	down atomic.Bool // fault-injected or control-plane-declared outage
	// svcEWMA is the decayed mean of recent request latencies in
	// nanoseconds (float64 bits): the wait a newly arriving request
	// should expect, which deadline-aware admission compares against
	// the request's remaining budget.
	svcEWMA atomic.Uint64
	// visits counts the requests that took the admission step.
	visits *metrics.Striped[metrics.Counter]
}

// New starts a DataNode.
func New(cfg Config) *Node {
	c := cfg.withDefaults()
	n := &Node{
		cfg:      c,
		cache:    cache.NewSALRU(c.CacheBytes),
		sched:    wfq.NewScheduler(c.WFQ),
		admit:    newAdmission(c.AdmitWorkers, c.AdmitQueueCap),
		replicas: make(map[partition.ID]*replica),
		tenants:  make(map[string]*tenantStats),
		retired:  make(map[string]ruLedger),
		visits:   metrics.NewStriped[metrics.Counter](),
	}
	n.SetReplicator(nil)
	return n
}

// observeServiceTime folds one completed request's latency into the
// node's decayed service-time estimate. Every admitted request —
// point, batch, or scan — contributes, so under overload the estimate
// tracks the real queue wait a new arrival will see.
func (n *Node) observeServiceTime(lat time.Duration) {
	const alpha = 0.1
	for {
		old := n.svcEWMA.Load()
		cur := math.Float64frombits(old)
		next := cur*(1-alpha) + float64(lat)*alpha
		if n.svcEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// EstimatedWait predicts how long a request arriving now will take to
// complete: the decayed mean of recent request latencies, floored by
// the admission backlog drained at AdmitCost per entry. Deadline-aware
// admission sheds requests whose remaining budget is below it.
func (n *Node) EstimatedWait() time.Duration {
	floor := time.Duration(n.admit.depth()+1) * n.cfg.AdmitCost
	if ewma := time.Duration(math.Float64frombits(n.svcEWMA.Load())); ewma > floor {
		return ewma
	}
	return floor
}

// admitCtx is the deadline-aware front door shared by every
// client-facing operation: a context that is already done fails fast
// before the request consumes a queue slot, admit cost, or RU; and a
// request whose remaining deadline budget is smaller than the node's
// estimated wait is shed the same way — doomed work is refused while
// the caller can still react. A context with no deadline is never
// shed. Context deadlines are wall-clock times, so the comparison uses
// real time even when the node itself runs on a simulated clock.
func (n *Node) admitCtx(ctx context.Context, ts *tenantStats) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	floor := time.Duration(n.admit.depth()+1) * n.cfg.AdmitCost
	if clock.Until(dl) < n.EstimatedWait() {
		ts.reqs.Cell().Shed.Inc()
		// Sheds must also feed the estimator, folding in the current
		// backlog floor: completions alone can never lower the EWMA
		// while everything is being shed, so without this a burst of
		// slow requests could leave an idle node refusing every
		// deadline-carrying request forever. Decaying toward the floor
		// re-admits a probe within a few dozen sheds; if the node is
		// still slow, the probe's completion pushes the estimate right
		// back up.
		n.observeServiceTime(floor)
		return ErrDeadlineShed
	}
	return nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.cfg.ID }

// SetReplicator wires the replication fabric (done by the cluster when
// the node joins it); nil discards replication traffic.
func (n *Node) SetReplicator(r Replicator) {
	if r == nil {
		r = NopReplicator{}
	}
	n.replicator.Store(&r)
}

// forward hands ops committed on rep, the last of them at position pos,
// to the replication fabric, addressed to the peers last pushed to rep,
// with the pin that keeps their bytes.
func (n *Node) forward(rep *replica, ops []WriteOp, pos uint64, pin lavastore.Pin) {
	(*n.replicator.Load()).Replicate(rep.id, rep.route.Load().peers, ops, pos, pin)
}

// AddReplica hosts a partition replica with the given partition quota
// in RU/s, always enforced at 3× (§4.2). primary selects whether this
// node serves client writes for the partition.
func (n *Node) AddReplica(rid partition.ReplicaID, quotaRU float64, primary bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.replicas[rid.Partition]; ok {
		return fmt.Errorf("datanode: replica for %s already hosted", rid.Partition)
	}
	dir := fmt.Sprintf("%s/%s-%d", n.cfg.ID, rid.Partition, rid.Replica)
	db, err := lavastore.Open(lavastore.Options{
		FS:    n.cfg.FS,
		Dir:   dir,
		Clock: n.cfg.Clock,
	})
	if err != nil {
		return err
	}
	rep := &replica{
		id:      rid,
		part:    rid.Partition.String(),
		dir:     dir,
		db:      db,
		limiter: quota.NewPartitionLimiter(quotaRU, n.cfg.Clock),
		ts:      n.tenantStateLocked(rid.Partition.Tenant),
		// The sketch keeps the package's top-k and decay window; the heat
		// meter decays over the same window.
		hot: hotspot.NewDetector(hotspot.Config{
			SampleRate: n.cfg.HotSampleRate,
			Clock:      n.cfg.Clock,
		}),
		heat: hotspot.NewMeter(hotspot.DefaultWindow, n.cfg.Clock),
	}
	rep.quotaRU.Set(quotaRU)
	rep.route.Store(&replicaRoute{primary: primary, epoch: 1})
	// Commit hook: wake change-stream pollers. Runs under the engine
	// lock, so it only flips per-watcher ready bits (see signalCommit).
	db.SetCommitNotify(func(uint64) { rep.signalCommit() })
	n.replicas[rid.Partition] = rep
	n.sumQuotasLocked()
	return nil
}

// SetDown marks the node down (true) or back up (false). While down,
// every operation — client traffic and replication applies alike —
// fails fast with ErrNodeDown; the stored data survives, matching a
// network partition or a crashed process whose disks persist. The
// fault-injection harness and the control plane drive this.
func (n *Node) SetDown(down bool) { n.down.Store(down) }

// Alive reports whether the node is serving (the control plane's
// health probe).
func (n *Node) Alive() bool { return !n.down.Load() }

// SetRoute is the control plane's route push for a hosted replica: its
// role, the route epoch and — for a primary — the followers its writes
// replicate to, installed as one value. A promotion pushes primary=true
// under a bumped epoch (after the replication backlog has drained), a
// fence primary=false; a follower move re-pushes the primary's peers at
// the epoch it already has. The epoch must not move backwards: a lower
// one than the replica holds is a stale control message and is
// rejected. Pushes at the SAME epoch are not ordered here — the
// control plane serialises them.
func (n *Node) SetRoute(pid partition.ID, primary bool, epoch uint64, followers []Peer) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	next := &replicaRoute{primary: primary, epoch: epoch, peers: followers}
	for {
		cur := rep.route.Load()
		if epoch < cur.epoch {
			return fmt.Errorf("%w: route push at epoch %d, replica at %d", ErrStaleEpoch, epoch, cur.epoch)
		}
		if rep.route.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// ReplicaRole reports a hosted replica's current role and epoch.
func (n *Node) ReplicaRole(pid partition.ID) (primary bool, epoch uint64, err error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return false, 0, err
	}
	cur := rep.route.Load()
	return cur.primary, cur.epoch, nil
}

// ReplicaPeers reports the ids of the followers a hosted replica
// replicates to: the peer set of the last route push (empty on a
// follower).
func (n *Node) ReplicaPeers(pid partition.ID) ([]string, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, p := range rep.route.Load().peers {
		ids = append(ids, p.node.ID())
	}
	return ids, nil
}

// ReplicationPosition returns how many write operations have been
// applied to the hosted replica's store. Comparing a follower's
// position with its primary's bounds the follower's staleness: the
// promotion path requires the candidate with the highest position, and
// follower reads fall back to the primary when the lag exceeds the
// proxy's bound. Replicas the node does not host report 0.
func (n *Node) ReplicationPosition(pid partition.ID) uint64 {
	rep, err := n.getReplica(pid)
	if err != nil {
		return 0
	}
	return rep.replPos.Load()
}

// AdoptReplicationPosition raises a hosted replica's replication
// position to pos (never lowering it). Repair calls it after a
// replica copy so the rebuilt follower inherits its source's
// position instead of restarting from its live-key count — otherwise
// a freshly rebuilt (fully caught-up) follower would look staler than
// a long-dead one at promotion time.
func (n *Node) AdoptReplicationPosition(pid partition.ID, pos uint64) {
	if rep, err := n.getReplica(pid); err == nil {
		rep.advancePos(pos)
		// A copied replica holds the source's state, not its per-write
		// history: align the engine's sequence with the adopted position
		// and refuse Replay below it (see lavastore.AlignSeq).
		rep.db.AlignSeq(pos)
	}
}

// RemoveReplica stops hosting a partition replica and releases its
// storage.
func (n *Node) RemoveReplica(pid partition.ID) error {
	n.mu.Lock()
	rep, ok := n.replicas[pid]
	if ok {
		delete(n.replicas, pid)
		charged, refunded := rep.limiter.RUTotals()
		l := n.retired[pid.Tenant]
		l.charged += charged
		l.refunded += refunded
		n.retired[pid.Tenant] = l
		n.sumQuotasLocked()
	}
	n.mu.Unlock()
	if !ok {
		return ErrNoPartition
	}
	err := rep.db.Close()
	// The replica is gone for good (a move copied it elsewhere first), so
	// its files and cached values go too: left behind, the files stay
	// resident on a MemFS forever, and a later replica of the same number
	// would reopen them — or be answered from the cache — as its own.
	n.cache.DeletePrefix(string(rep.cacheKey(nil, nil))) // the empty key's name prefixes every key's
	names, lerr := n.cfg.FS.List(rep.dir)
	for _, name := range names {
		err = errors.Join(err, n.cfg.FS.Remove(rep.dir+"/"+name))
	}
	return errors.Join(err, lerr)
}

// HostsReplica reports whether the node hosts pid.
func (n *Node) HostsReplica(pid partition.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.replicas[pid]
	return ok
}

// Replicas returns the hosted partition IDs.
func (n *Node) Replicas() []partition.ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]partition.ID, 0, len(n.replicas))
	for pid := range n.replicas {
		out = append(out, pid)
	}
	return out
}

// SetPartitionQuota updates a hosted replica's partition quota.
func (n *Node) SetPartitionQuota(pid partition.ID, quotaRU float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep, ok := n.replicas[pid]
	if !ok {
		return ErrNoPartition
	}
	rep.quotaRU.Set(quotaRU)
	rep.limiter.SetQuota(quotaRU)
	n.sumQuotasLocked()
	return nil
}

func (n *Node) getReplica(pid partition.ID) (*replica, error) {
	// The down check sits on the shared replica-resolution path so that
	// every operation — point, batch, scan, and replication applies —
	// fails fast during an outage without touching the engine.
	if n.down.Load() {
		return nil, ErrNodeDown
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	rep, ok := n.replicas[pid]
	if !ok {
		return nil, ErrNoPartition
	}
	return rep, nil
}

// tenantStateLocked returns tenant's state on this node, created when
// its first replica arrives.
// +locked:n.mu
func (n *Node) tenantStateLocked(tenant string) *tenantStats {
	ts, ok := n.tenants[tenant]
	if !ok {
		ts = &tenantStats{reqs: metrics.NewStriped[metrics.Requests](), est: ru.NewEstimator(0)}
		n.tenants[tenant] = ts
	}
	return ts
}

// sumQuotasLocked recomputes quotaSum over the hosted replicas.
// +locked:n.mu
func (n *Node) sumQuotasLocked() {
	var sum float64
	for _, r := range n.replicas {
		sum += r.quotaRU.Value()
	}
	n.quotaSum.Set(sum)
}

// quotaShare computes wPartition for the VFT: the replica's partition
// quota over the sum of partition quotas hosted on this node.
func (n *Node) quotaShare(rep *replica) float64 {
	sum := n.quotaSum.Value()
	if sum <= 0 {
		return 1
	}
	return rep.quotaRU.Value() / sum
}

// cacheKey appends key's name in the node-wide SA-LRU to dst. Callers
// build it in a stack buffer of cacheKeyBuf bytes, so a lookup, a
// write-through and an invalidation allocate nothing; the SA-LRU copies
// the name only when it inserts a new entry.
func (r *replica) cacheKey(dst, key []byte) []byte {
	dst = append(dst, r.part...)
	dst = append(dst, 0)
	return append(dst, key...)
}

// cacheKeyBuf sizes the stack buffers cache keys are built in; a longer
// name spills to the heap and is otherwise handled alike.
const cacheKeyBuf = 128

// Close drains the WFQ and closes all replica stores.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	reps := make([]*replica, 0, len(n.replicas))
	for _, r := range n.replicas {
		reps = append(reps, r)
	}
	n.mu.Unlock()
	n.admit.close()
	n.sched.Close()
	var first error
	for _, r := range reps {
		if err := r.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
