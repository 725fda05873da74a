package metaserver

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/partition"
	"abase/internal/quota"
)

// Errors returned by the meta server.
var (
	ErrTenantExists     = errors.New("metaserver: tenant already exists")
	ErrUnknownTenant    = errors.New("metaserver: unknown tenant")
	ErrUnknownNode      = errors.New("metaserver: unknown node")
	ErrUnknownPartition = errors.New("metaserver: unknown partition index")
	ErrNotEnoughNodes   = errors.New("metaserver: not enough nodes for replication factor")
)

// Tenant is the control-plane record for one tenant.
type Tenant struct {
	Name    string
	Quota   *quota.TenantQuota
	Table   *partition.Table
	Proxies int // N: tenant proxy count
	Groups  int // n: proxy groups for limited fan-out hash routing
	// version counts routing-table changes (splits, failovers,
	// repairs); proxies cache the table stamped with it (guarded by
	// Meta.mu).
	version uint64
}

// RestrictableProxy is the control surface the MetaServer uses to
// direct proxies back to their standard quota (§4.2).
type RestrictableProxy interface {
	ProxyID() string
	TenantName() string
	Restrict()
	Relax()
	// WindowRU returns the RU admitted by this proxy since the last
	// call (the monitoring sample).
	WindowRU() float64
}

// Meta is the centralized management module.
type Meta struct {
	clk      clock.Clock
	replicas int

	mu      sync.RWMutex
	nodes   map[string]*datanode.Node
	tenants map[string]*Tenant
	proxies map[string][]RestrictableProxy // tenant → proxies
	// heatStreak counts consecutive over-threshold monitoring cycles
	// per tenant (guarded by mu).
	heatStreak map[string]int
	// health tracks per-node probe state for failure detection
	// (guarded by mu).
	health          map[string]*nodeHealth
	downAfterProbes int

	heatCfg struct {
		threshold     float64
		windows       int
		maxPartitions int
	}

	replWG sync.WaitGroup
	// replJobs is one FIFO lane per replication worker. Jobs shard by
	// (partition, target node), so applies to one follower replica are
	// processed in enqueue order — a single shared queue with several
	// workers would let two writes to the same key land on a follower
	// in reversed order, leaving the follower with the older value and
	// a replication position that claims otherwise.
	replJobs []chan replJob
	closed   bool

	// pendEnq/pendDone count replication jobs enqueued and applied;
	// FlushReplication (the failover catch-up gate) waits for the
	// done counter to reach the enqueue count captured at call time.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pendEnq  uint64
	pendDone uint64
}

// replJob is one replication message for one follower: the ops a
// primary committed together (one for a point write) and pos, the
// primary's replication position after the last of them, which the
// follower adopts monotonically.
type replJob struct {
	node *datanode.Node
	pid  partition.ID
	ops  []datanode.WriteOp
	pos  uint64
}

// Config configures a Meta.
type Config struct {
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Replicas is the replication factor (default 3).
	Replicas int
	// ReplWorkers sizes the async replication worker pool (default 4).
	ReplWorkers int
	// HeatSplitThreshold is the per-partition heat (ops/sec, decayed)
	// above which a tenant counts as hot for automatic splitting. Zero
	// disables heat-driven splits.
	HeatSplitThreshold float64
	// HeatSplitWindows is how many consecutive monitoring cycles a
	// tenant's hottest partition must exceed the threshold before its
	// partition count is doubled (default 3) — transient spikes are
	// absorbed by the proxy caches; only sustained heat reshapes the
	// layout.
	HeatSplitWindows int
	// HeatSplitMaxPartitions caps automatic doubling (default 256).
	HeatSplitMaxPartitions int
	// DownAfterProbes is how many consecutive failed health probes mark
	// a node down and trigger failover (default 2). Proxy suspect
	// reports drive extra probes, so a dead node under traffic is
	// detected faster than the monitoring cadence alone.
	DownAfterProbes int
}

// New starts a meta server.
func New(cfg Config) *Meta {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.ReplWorkers <= 0 {
		cfg.ReplWorkers = 4
	}
	if cfg.HeatSplitWindows <= 0 {
		cfg.HeatSplitWindows = 3
	}
	if cfg.HeatSplitMaxPartitions <= 0 {
		cfg.HeatSplitMaxPartitions = 256
	}
	if cfg.DownAfterProbes <= 0 {
		cfg.DownAfterProbes = 2
	}
	m := &Meta{
		clk:             cfg.Clock,
		replicas:        cfg.Replicas,
		nodes:           make(map[string]*datanode.Node),
		tenants:         make(map[string]*Tenant),
		proxies:         make(map[string][]RestrictableProxy),
		heatStreak:      make(map[string]int),
		health:          make(map[string]*nodeHealth),
		downAfterProbes: cfg.DownAfterProbes,
		replJobs:        make([]chan replJob, cfg.ReplWorkers),
	}
	m.pendCond = sync.NewCond(&m.pendMu)
	m.heatCfg.threshold = cfg.HeatSplitThreshold
	m.heatCfg.windows = cfg.HeatSplitWindows
	m.heatCfg.maxPartitions = cfg.HeatSplitMaxPartitions
	for i := 0; i < cfg.ReplWorkers; i++ {
		m.replJobs[i] = make(chan replJob, 1024)
		m.replWG.Add(1)
		go m.replWorker(m.replJobs[i])
	}
	return m
}

// replLane picks the worker lane for one (partition, follower) pair.
func (m *Meta) replLane(pid partition.ID, nodeID string) chan replJob {
	h := fnv.New32a()
	h.Write([]byte(pid.Tenant))
	fmt.Fprintf(h, "/%d/", pid.Index)
	h.Write([]byte(nodeID))
	return m.replJobs[h.Sum32()%uint32(len(m.replJobs))]
}

func (m *Meta) replWorker(jobs <-chan replJob) {
	defer m.replWG.Done()
	for job := range jobs {
		// Best effort: eventual consistency tolerates transient errors
		// (a down follower drops its deltas; repair rebuilds it).
		_ = job.node.ApplyReplicatedAt(job.pid, job.pos, job.ops)
		m.donePending()
	}
}

// Close stops the replication workers after draining queued jobs.
func (m *Meta) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	for _, lane := range m.replJobs {
		close(lane)
	}
	m.replWG.Wait()
}

// RegisterNode adds a DataNode to the pool and wires its replication.
func (m *Meta) RegisterNode(n *datanode.Node) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.ID()] = n
	n.SetReplicator(&metaReplicator{meta: m, origin: n.ID()})
}

// Nodes returns the registered node IDs, sorted.
func (m *Meta) Nodes() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.nodes))
	for id := range m.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Node returns a registered node.
func (m *Meta) Node(id string) (*datanode.Node, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	return n, nil
}

// metaReplicator routes a primary's write to the partition's followers.
type metaReplicator struct {
	meta   *Meta
	origin string
}

// followers resolves the live follower nodes for a partition, skipping
// the originating node. It reports closed=true when the meta server is
// shutting down.
func (r *metaReplicator) followers(pid partition.ID) (targets []*datanode.Node, closed bool) {
	m := r.meta
	m.mu.RLock()
	defer m.mu.RUnlock()
	ten, ok := m.tenants[pid.Tenant]
	if !ok || pid.Index >= len(ten.Table.Partitions) {
		return nil, m.closed
	}
	route := ten.Table.Partitions[pid.Index]
	for _, f := range route.Followers {
		if f == r.origin {
			continue
		}
		if n, ok := m.nodes[f]; ok {
			targets = append(targets, n)
		}
	}
	return targets, m.closed
}

// Replicate implements datanode.Replicator: the ops travel as one
// replication message per follower and are applied there as one group
// commit. The message owns its bytes — one arena holds every copied key
// and value, shared read-only by all followers.
func (r *metaReplicator) Replicate(rid partition.ReplicaID, ops []datanode.WriteOp, pos uint64) {
	targets, closed := r.followers(rid.Partition)
	if closed || len(targets) == 0 {
		return
	}
	size := 0
	for _, op := range ops {
		size += len(op.Key) + len(op.Value)
	}
	arena := make([]byte, 0, size)
	own := func(b []byte) []byte {
		arena = append(arena, b...)
		return arena[len(arena)-len(b) : len(arena) : len(arena)]
	}
	copied := make([]datanode.WriteOp, len(ops))
	for i, op := range ops {
		copied[i] = datanode.WriteOp{Key: own(op.Key), Value: own(op.Value), TTL: op.TTL, Delete: op.Delete}
	}
	r.meta.addPending(len(targets))
	for _, n := range targets {
		r.meta.replLane(rid.Partition, n.ID()) <- replJob{node: n, pid: rid.Partition, ops: copied, pos: pos}
	}
}

// TenantSpec describes a tenant to create.
type TenantSpec struct {
	Name       string
	QuotaRU    float64
	StorageGB  float64
	Partitions int
	Proxies    int
	Groups     int
}

// CreateTenant allocates partitions and replicas across the pool's
// least-loaded nodes and installs the routing table.
func (m *Meta) CreateTenant(spec TenantSpec) (*Tenant, error) {
	if spec.Partitions <= 0 {
		spec.Partitions = 1
	}
	if spec.Proxies <= 0 {
		spec.Proxies = 1
	}
	if spec.Groups <= 0 || spec.Groups > spec.Proxies {
		spec.Groups = spec.Proxies
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tenants[spec.Name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, spec.Name)
	}
	if len(m.nodes) < m.replicas {
		return nil, fmt.Errorf("%w: have %d nodes, need %d", ErrNotEnoughNodes, len(m.nodes), m.replicas)
	}
	q := quota.NewTenantQuota(spec.QuotaRU, spec.StorageGB, spec.Proxies, spec.Partitions)
	table := &partition.Table{Tenant: spec.Name}
	perPartition := q.PartitionQuota()

	for idx := 0; idx < spec.Partitions; idx++ {
		pid := partition.ID{Tenant: spec.Name, Index: idx}
		hosts := m.pickHostsLocked(m.replicas, nil)
		if len(hosts) < m.replicas {
			return nil, ErrNotEnoughNodes
		}
		route := partition.Route{Partition: pid, Primary: hosts[0], Epoch: 1}
		for r, host := range hosts {
			rid := partition.ReplicaID{Partition: pid, Replica: r}
			if err := m.nodes[host].AddReplica(rid, perPartition, r == 0); err != nil {
				return nil, err
			}
			if r > 0 {
				route.Followers = append(route.Followers, host)
			}
		}
		table.Partitions = append(table.Partitions, route)
	}
	ten := &Tenant{
		Name:    spec.Name,
		Quota:   q,
		Table:   table,
		Proxies: spec.Proxies,
		Groups:  spec.Groups,
		version: 1,
	}
	m.tenants[spec.Name] = ten
	return ten, nil
}

// pickHostsLocked returns up to k distinct node IDs with the fewest
// hosted replicas, excluding any in the exclude set and any node the
// health tracker currently considers down — placing a fresh replica
// (or a split's new primary) on a dead node would black it out on
// arrival.
// +locked:m.mu
func (m *Meta) pickHostsLocked(k int, exclude map[string]bool) []string {
	type cand struct {
		id   string
		load int
	}
	var cands []cand
	for id, n := range m.nodes {
		if exclude[id] {
			continue
		}
		if h := m.health[id]; h != nil && h.down {
			continue
		}
		cands = append(cands, cand{id, len(n.Replicas())})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].load != cands[j].load {
			return cands[i].load < cands[j].load
		}
		return cands[i].id < cands[j].id
	})
	var out []string
	for i := 0; i < len(cands) && i < k; i++ {
		out = append(out, cands[i].id)
	}
	return out
}

// Tenant returns a tenant's control-plane record.
func (m *Meta) Tenant(name string) (*Tenant, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	return t, nil
}

// Tenants returns all tenant names, sorted.
func (m *Meta) Tenants() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RouteFor returns the route for a tenant key.
func (m *Meta) RouteFor(tenant string, key []byte) (partition.Route, error) {
	t, err := m.Tenant(tenant)
	if err != nil {
		return partition.Route{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return t.Table.RouteFor(key), nil
}

// RoutesFor resolves the route for every key in one routing-table
// lookup pass: a single tenant lookup and a single lock acquisition
// cover the whole batch, instead of one RouteFor round trip per key.
func (m *Meta) RoutesFor(tenant string, keys [][]byte) ([]partition.Route, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	out := make([]partition.Route, len(keys))
	for i, k := range keys {
		out[i] = t.Table.RouteFor(k)
	}
	return out, nil
}

// NumPartitions returns the tenant's current partition count. Scans
// re-read it between cursor pages so a split mid-traversal extends the
// partition walk instead of invalidating it.
func (m *Meta) NumPartitions(tenant string) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	return len(t.Table.Partitions), nil
}

// RouteForIndex returns the routing entry for one partition addressed
// by index rather than by key — the lookup a partition-ordered scan
// cursor performs.
func (m *Meta) RouteForIndex(tenant string, idx int) (partition.Route, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return partition.Route{}, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	if idx < 0 || idx >= len(t.Table.Partitions) {
		return partition.Route{}, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, tenant, idx)
	}
	return t.Table.Partitions[idx], nil
}

// RegisterProxy records a proxy for traffic-control monitoring.
func (m *Meta) RegisterProxy(p RestrictableProxy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.proxies[p.TenantName()] = append(m.proxies[p.TenantName()], p)
}

// MonitorProxyTraffic runs one traffic-control cycle (§4.2): for each
// tenant, sum the RU its proxies admitted over the window; if the rate
// exceeds the tenant quota, direct all its proxies to revert to the
// standard proxy_quota, otherwise restore the 2× autonomy.
// window is the elapsed time the samples cover.
func (m *Meta) MonitorProxyTraffic(window time.Duration) {
	if window <= 0 {
		window = time.Second
	}
	m.mu.RLock()
	type group struct {
		tenant  *Tenant
		proxies []RestrictableProxy
	}
	var groups []group
	for name, ps := range m.proxies {
		if t, ok := m.tenants[name]; ok {
			groups = append(groups, group{t, ps})
		}
	}
	m.mu.RUnlock()

	for _, g := range groups {
		var total float64
		for _, p := range g.proxies {
			total += p.WindowRU()
		}
		rate := total / window.Seconds()
		if rate > g.tenant.Quota.RU() {
			for _, p := range g.proxies {
				p.Restrict()
			}
		} else {
			for _, p := range g.proxies {
				p.Relax()
			}
		}
	}
}
