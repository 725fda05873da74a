package metaserver

import (
	"errors"
	"fmt"
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

	// fabric is the data plane's replication fabric. The control plane
	// starts it, hands it to every node that registers, resolves the
	// peers it pushes to primaries through it and drains it before a
	// promotion; it never sits between a write and its followers.
	fabric *datanode.Fabric
}

// Config configures a Meta.
type Config struct {
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Replicas is the replication factor (default 3).
	Replicas int
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
		fabric:          datanode.NewFabric(),
	}
	m.heatCfg.threshold = cfg.HeatSplitThreshold
	m.heatCfg.windows = cfg.HeatSplitWindows
	m.heatCfg.maxPartitions = cfg.HeatSplitMaxPartitions
	return m
}

// Close stops the replication fabric after it drains queued messages.
func (m *Meta) Close() { m.fabric.Close() }

// FlushReplication blocks until every replication message enqueued
// before the call has been applied (see datanode.Fabric.Flush).
func (m *Meta) FlushReplication() { m.fabric.Flush() }

// RegisterNode adds a DataNode to the pool and wires it to the
// replication fabric.
func (m *Meta) RegisterNode(n *datanode.Node) {
	n.SetReplicator(m.fabric)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.ID()] = n
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

// TenantSpec describes a tenant to create.
type TenantSpec struct {
	Name       string
	QuotaRU    float64
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
	ten := &Tenant{
		Name:    spec.Name,
		Quota:   quota.NewTenantQuota(spec.QuotaRU, spec.Proxies, spec.Partitions),
		Table:   &partition.Table{Tenant: spec.Name},
		Proxies: spec.Proxies,
		Groups:  spec.Groups,
	}
	// The first table is one route commit like any later change (no
	// proxy can be registered for the tenant yet, so none is told).
	m.tenants[spec.Name] = ten
	if err := m.commitLocked(spec.Name, 0, spec.Partitions, m.placeLocked); err != nil {
		delete(m.tenants, spec.Name)
		return nil, err
	}
	return ten, nil
}

// placeLocked is the route edit that creates a partition: it places the
// replicas on the pool's least-loaded live nodes and materialises them
// at the tenant's current partition quota.
// +locked:m.mu
func (m *Meta) placeLocked(r *partition.Route) error {
	if r.Primary != "" {
		return fmt.Errorf("metaserver: %s already exists", r.Partition)
	}
	hosts := m.pickHostsLocked(m.replicas, nil)
	if len(hosts) < m.replicas {
		return ErrNotEnoughNodes
	}
	perPartition := m.tenants[r.Partition.Tenant].Quota.PartitionQuota()
	for i, host := range hosts {
		rid := partition.ReplicaID{Partition: r.Partition, Replica: i}
		if err := m.nodes[host].AddReplica(rid, perPartition, i == 0); err != nil {
			return err
		}
	}
	r.Primary, r.Followers, r.Epoch = hosts[0], hosts[1:], 1
	return nil
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
