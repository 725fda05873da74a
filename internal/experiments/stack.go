package experiments

import (
	"fmt"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
)

// unbounded is the RU quota of every experiment tenant: more than any
// experiment offers, so admission is enforced but never binds unless an
// experiment sets a real quota of its own.
const unbounded = 1e12

// smallCacheNode is the node template of the proxy-cache experiments:
// no simulated cost, so the proxy cache's benefit shows up as skipped
// orchestration round trips (admission, WFQ, engine read), and a node
// cache too small to hide what the proxy AU-LRU does.
var smallCacheNode = datanode.Config{
	WFQ:        wfq.Config{CPUWorkers: 2, BasicIOThreads: 2},
	CacheBytes: 16 << 10,
}

// stack is what every proxy-plane experiment runs on: a MetaServer, its
// DataNodes and one tenant.
type stack struct {
	meta   *metaserver.Meta
	nodes  []*datanode.Node
	tenant *metaserver.Tenant
}

// newStack starts a MetaServer from meta and n DataNodes from the node
// template, named after the tenant, and creates the tenant over
// partitions with an unbounded quota.
func newStack(meta metaserver.Config, n int, node datanode.Config, tenant string, partitions int) *stack {
	s := &stack{meta: metaserver.New(meta)}
	for i := 0; i < n; i++ {
		c := node
		c.ID = fmt.Sprintf("%s-node-%d", tenant, i)
		dn := datanode.New(c)
		s.meta.RegisterNode(dn)
		s.nodes = append(s.nodes, dn)
	}
	t, err := s.meta.CreateTenant(metaserver.TenantSpec{Name: tenant, QuotaRU: unbounded, Partitions: partitions})
	if err != nil {
		panic(err)
	}
	s.tenant = t
	return s
}

// fleet starts the tenant's proxies from cfg, each with the tenant's
// proxy share as its quota, as abase.CreateTenant does.
func (s *stack) fleet(cfg proxy.Config, proxies, groups int, seed int64) *proxy.Fleet {
	cfg.Tenant, cfg.Meta, cfg.ProxyQuota = s.tenant.Name, s.meta, s.tenant.Quota.ProxyQuota()
	f, err := proxy.NewFleet(cfg, proxies, groups, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// preload writes keys 0..keys-1, in the generators' key format, with
// valueBytes values straight to their primaries: system traffic skips
// quota and WFQ, so the fixture is instant and every bucket starts full.
func (s *stack) preload(keys, valueBytes int) {
	val := make([]byte, valueBytes)
	for k := 0; k < keys; k++ {
		key := []byte(fmt.Sprintf("key-%012d", k))
		route, _ := s.meta.RouteFor(s.tenant.Name, key)
		node, _ := s.meta.Node(route.Primary)
		node.ApplyReplicated(route.Partition, 0, datanode.WriteOp{Key: key, Value: val})
	}
}

// nodeRU is the RU the DataNodes billed the tenant.
func (s *stack) nodeRU() (ru float64) {
	for _, n := range s.nodes {
		ru += n.TenantStats(s.tenant.Name).RUUsed
	}
	return ru
}

func (s *stack) close() {
	s.meta.Close()
	for _, n := range s.nodes {
		n.Close()
	}
}
