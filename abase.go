// Package abase is a from-scratch reproduction of ABase, ByteDance's
// multi-tenant NoSQL serverless database (Kang et al.,
// SIGMOD-Companion '25). It assembles the three planes of the paper's
// architecture into an embeddable cluster:
//
//   - Control plane: MetaServer (metadata, routing, traffic control,
//     replica repair), predictive autoscaler, multi-resource
//     rescheduler.
//   - Data plane: DataNodes with partition quotas, dual-layer WFQ,
//     SA-LRU caches, and a LavaStore-style LSM engine.
//   - Proxy plane: per-tenant proxy fleets with AU-LRU caches, proxy
//     quotas, and limited fan-out hash routing.
//
// Quickstart:
//
//	cluster, _ := abase.NewCluster(abase.ClusterConfig{Nodes: 3})
//	defer cluster.Close()
//	tenant, _ := cluster.CreateTenant(abase.TenantSpec{
//		Name: "myapp", QuotaRU: 10000, Partitions: 4, Proxies: 2,
//	})
//	c := tenant.Client()
//	ctx := context.Background()
//	c.Set(ctx, []byte("greeting"), []byte("hello"))
//	v, _ := c.Get(ctx, []byte("greeting"))
//
// Every operation takes a context.Context: a deadline or cancellation
// propagates through the proxy quota, the DataNode admission queue,
// and the WFQ waits, so abandoned requests are shed instead of served.
package abase

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/hashfield"
	"abase/internal/lavastore"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
)

// Re-exported sentinel errors.
var (
	// ErrNotFound is returned when a key does not exist.
	ErrNotFound = proxy.ErrNotFound
	// ErrThrottled is returned when quota admission rejects a request.
	ErrThrottled = proxy.ErrThrottled
	// ErrBadCursor is returned when a scan cursor cannot be decoded;
	// restart the traversal from the empty cursor.
	ErrBadCursor = proxy.ErrBadCursor
	// ErrUnavailable is returned while a request's DataNode is down and
	// no failover has completed yet; callers should back off and retry.
	ErrUnavailable = datanode.ErrNodeDown
	// ErrDeadlineExceeded is returned when a request's context deadline
	// expired before the request completed — possibly mid-queue, in
	// which case the queued work was aborted without executing.
	ErrDeadlineExceeded = context.DeadlineExceeded
	// ErrCanceled is returned when a request's context was canceled.
	ErrCanceled = context.Canceled
	// ErrShed is returned when deadline-aware admission refused a
	// request up front: its remaining deadline budget was smaller than
	// the DataNode's estimated queue wait, so serving it would have
	// burned resources on an answer the caller could not use. It
	// matches errors.Is(err, ErrDeadlineExceeded).
	ErrShed = datanode.ErrDeadlineShed
	// ErrWrongType is returned by the hash operations for a key whose
	// stored value is not a hash.
	ErrWrongType = hashfield.ErrNotHash
	// ErrConditionNotMet is returned by Set when an NX/XX condition
	// left the key unchanged (use SetWith to observe this without an
	// error).
	ErrConditionNotMet = errors.New("abase: conditional write not applied")
)

// ReadPreference selects which replica serves a client's reads.
type ReadPreference = proxy.ReadPreference

// Read preferences.
const (
	// ReadPrimary serves reads from partition primaries (the default).
	ReadPrimary = proxy.ReadPrimary
	// ReadFollower lets staleness-bounded follower replicas serve
	// reads, which keeps keys readable while their primary is down.
	ReadFollower = proxy.ReadFollower
)

// KV is one key/value pair in a batched write.
type KV = proxy.KV

// BatchError reports per-key failures from a multi-key operation.
// Errs is parallel to the operation's input; nil entries succeeded.
// errors.Is matches any of the contained errors (e.g. ErrThrottled).
type BatchError struct {
	Errs []error
}

// Error implements error.
func (e *BatchError) Error() string {
	failed := 0
	var first error
	for _, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return fmt.Sprintf("abase: %d/%d keys failed (first: %v)", failed, len(e.Errs), first)
}

// Unwrap exposes the per-key errors to errors.Is/As.
func (e *BatchError) Unwrap() []error { return e.Errs }

// batchError returns a *BatchError if any entry of errs is non-nil
// after applying ignore (which may clear per-key errors such as
// ErrNotFound); otherwise nil.
func batchError(errs []error, ignore func(error) bool) error {
	failed := false
	for _, err := range errs {
		if err != nil && (ignore == nil || !ignore(err)) {
			failed = true
			break
		}
	}
	if !failed {
		return nil
	}
	kept := make([]error, len(errs))
	for i, err := range errs {
		if err != nil && (ignore == nil || !ignore(err)) {
			kept[i] = err
		}
	}
	return &BatchError{Errs: kept}
}

// ClusterConfig configures an embedded ABase cluster.
type ClusterConfig struct {
	// Nodes is the DataNode count (default 3).
	Nodes int
	// Replicas is the replication factor (default 3, ≤ Nodes).
	Replicas int
	// Clock defaults to the real clock; tests and simulations may use
	// a virtual clock.
	Clock clock.Clock
	// NodeCacheBytes sizes each DataNode's SA-LRU (default 64 MiB).
	NodeCacheBytes int64
	// Cost is each node's simulated service-time model; the zero model
	// simulates none.
	Cost datanode.CostModel
	// WFQ tunes each node's dual-layer WFQs.
	WFQ wfq.Config
	// FS backs the storage engines (default: in-memory).
	FS lavastore.FS
	// AdmitCost is each node's simulated request-queue processing time
	// per request; zero simulates none.
	AdmitCost time.Duration
	// HeatSplitThreshold enables heat-driven automatic partition
	// splits: when a tenant's hottest partition sustains more than this
	// many ops/sec (decayed) for HeatSplitWindows consecutive
	// MonitorTrafficOnce cycles, its partition count is doubled, up to
	// 256 partitions. Zero disables automatic splitting.
	HeatSplitThreshold float64
	// HeatSplitWindows is the consecutive-cycle requirement (default 3).
	HeatSplitWindows int
	// HotSampleRate samples the DataNode heavy-hitter sketches: one in
	// every N key accesses is recorded (default 4; 1 records all).
	HotSampleRate int
	// DownAfterProbes is how many consecutive failed health probes mark
	// a DataNode down and trigger primary failover (default 2). Probes
	// run on every MonitorTrafficOnce cycle and on proxy suspect
	// reports.
	DownAfterProbes int
}

// Cluster is an embedded ABase deployment.
type Cluster struct {
	cfg  ClusterConfig
	Meta *metaserver.Meta

	mu       sync.Mutex
	nodes    []*datanode.Node
	nextNode int // monotone id counter: decommissions never recycle ids
	tenants  map[string]*Tenant
	closed   bool
}

// validate refuses every negative count, size, duration and cost cfg
// owns: zero picks a default, and a negative value means nothing. WFQ
// passes through, because its ExtraIOThreads uses -1 for "none".
func (cfg ClusterConfig) validate() error {
	return refuseNegative("ClusterConfig", map[string]float64{
		"Nodes":              float64(cfg.Nodes),
		"Replicas":           float64(cfg.Replicas),
		"NodeCacheBytes":     float64(cfg.NodeCacheBytes),
		"Cost.CPUTime":       float64(cfg.Cost.CPUTime),
		"Cost.IOReadTime":    float64(cfg.Cost.IOReadTime),
		"Cost.IOWriteTime":   float64(cfg.Cost.IOWriteTime),
		"AdmitCost":          float64(cfg.AdmitCost),
		"HeatSplitThreshold": cfg.HeatSplitThreshold,
		"HeatSplitWindows":   float64(cfg.HeatSplitWindows),
		"HotSampleRate":      float64(cfg.HotSampleRate),
		"DownAfterProbes":    float64(cfg.DownAfterProbes),
	})
}

// refuseNegative returns an error naming the first field, in name
// order, of the struct called kind whose value is negative.
func refuseNegative(kind string, fields map[string]float64) error {
	for _, name := range slices.Sorted(maps.Keys(fields)) {
		if v := fields[name]; v < 0 {
			return fmt.Errorf("abase: %s.%s is negative (%v)", kind, name, v)
		}
	}
	return nil
}

// NewCluster starts a cluster with cfg.Nodes DataNodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("abase: replicas (%d) exceed nodes (%d)", cfg.Replicas, cfg.Nodes)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	c := &Cluster{
		cfg: cfg,
		Meta: metaserver.New(metaserver.Config{
			Clock:              cfg.Clock,
			Replicas:           cfg.Replicas,
			HeatSplitThreshold: cfg.HeatSplitThreshold,
			HeatSplitWindows:   cfg.HeatSplitWindows,
			DownAfterProbes:    cfg.DownAfterProbes,
		}),
		tenants: make(map[string]*Tenant),
	}
	c.mu.Lock()
	for i := 0; i < cfg.Nodes; i++ {
		c.addNodeLocked()
	}
	c.mu.Unlock()
	return c, nil
}

// addNodeLocked builds, registers, and tracks one DataNode.
//
// +locked:c.mu
func (c *Cluster) addNodeLocked() *datanode.Node {
	cfg := c.cfg
	n := datanode.New(datanode.Config{
		ID:            fmt.Sprintf("dn-%03d", c.nextNode),
		Clock:         cfg.Clock,
		FS:            cfg.FS,
		CacheBytes:    cfg.NodeCacheBytes,
		WFQ:           cfg.WFQ,
		Cost:          cfg.Cost,
		Replicas:      cfg.Replicas,
		AdmitCost:     cfg.AdmitCost,
		HotSampleRate: cfg.HotSampleRate,
	})
	c.nextNode++
	c.Meta.RegisterNode(n)
	c.nodes = append(c.nodes, n)
	return n
}

// AddNode grows the pool by one DataNode (autoscaler scale-up). The
// new node starts empty and attracts replicas through partition
// splits, failure repairs, and rescheduler migrations; existing
// routes are untouched.
func (c *Cluster) AddNode() (*datanode.Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("abase: cluster closed")
	}
	return c.addNodeLocked(), nil
}

// RemoveNode gracefully decommissions a DataNode (autoscaler
// scale-down): replication is drained so every follower is caught up,
// the node's replicas are rebuilt across the surviving pool from
// surviving copies (primaries hand off with an epoch bump, exactly as
// in failure repair), and only then is the node shut down — no
// acknowledged write is lost. The pool cannot shrink below the
// replication factor.
func (c *Cluster) RemoveNode(id string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("abase: cluster closed")
	}
	idx := -1
	for i, n := range c.nodes {
		if n.ID() == id {
			idx = i
			break
		}
	}
	if idx == -1 {
		c.mu.Unlock()
		return fmt.Errorf("abase: unknown node %q", id)
	}
	if len(c.nodes)-1 < c.cfg.Replicas {
		c.mu.Unlock()
		return fmt.Errorf("abase: removing %s would leave %d nodes, below the replication factor %d",
			id, len(c.nodes)-1, c.cfg.Replicas)
	}
	n := c.nodes[idx]
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	c.mu.Unlock()

	c.Meta.FlushReplication()
	if err := c.Meta.FailNode(id); err != nil {
		return err
	}
	return n.Close()
}

// Nodes returns the cluster's DataNodes (observability and tests).
func (c *Cluster) Nodes() []*datanode.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*datanode.Node(nil), c.nodes...)
}

// TenantSpec describes a tenant to provision.
type TenantSpec struct {
	// Name identifies the tenant.
	Name string
	// QuotaRU is the tenant quota in RU/s.
	QuotaRU float64
	// Partitions is the partition count (default 1).
	Partitions int
	// Proxies is N, the tenant's proxy count (default 1).
	Proxies int
	// ProxyGroups is n, the limited fan-out group count (default N).
	ProxyGroups int
	// DisableProxyCache turns off the AU-LRU.
	DisableProxyCache bool
	// ProxyCacheBytes sizes each proxy's AU-LRU (default 32 MiB). Its
	// entries live 10s, a value is cached once its key has been read
	// twice in the hotspot window, and follower reads may trail their
	// primary by 1024 writes (the proxy package's defaults).
	ProxyCacheBytes int64
}

// validate refuses every negative count, size and quota spec owns.
func (spec TenantSpec) validate() error {
	return refuseNegative("TenantSpec", map[string]float64{
		"QuotaRU":         spec.QuotaRU,
		"Partitions":      float64(spec.Partitions),
		"Proxies":         float64(spec.Proxies),
		"ProxyGroups":     float64(spec.ProxyGroups),
		"ProxyCacheBytes": float64(spec.ProxyCacheBytes),
	})
}

// Tenant is a provisioned tenant with its proxy fleet.
type Tenant struct {
	Name    string
	cluster *Cluster
	meta    *metaserver.Tenant
	fleet   *proxy.Fleet
}

// CreateTenant provisions partitions, replicas, and a proxy fleet.
func (c *Cluster) CreateTenant(spec TenantSpec) (*Tenant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("abase: cluster closed")
	}
	if spec.Name == "" {
		return nil, errors.New("abase: tenant name required")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	mt, err := c.Meta.CreateTenant(metaserver.TenantSpec{
		Name:       spec.Name,
		QuotaRU:    spec.QuotaRU,
		Partitions: spec.Partitions,
		Proxies:    spec.Proxies,
		Groups:     spec.ProxyGroups,
	})
	if err != nil {
		return nil, err
	}
	fleet, err := proxy.NewFleet(proxy.Config{
		Tenant:      spec.Name,
		Meta:        c.Meta,
		Clock:       c.cfg.Clock,
		CacheBytes:  spec.ProxyCacheBytes,
		EnableCache: !spec.DisableProxyCache,
		ProxyQuota:  mt.Quota.ProxyQuota(),
	}, mt.Proxies, mt.Groups, 1)
	if err != nil {
		return nil, err
	}
	t := &Tenant{Name: spec.Name, cluster: c, meta: mt, fleet: fleet}
	c.tenants[spec.Name] = t
	return t, nil
}

// Tenant returns a provisioned tenant by name.
func (c *Cluster) Tenant(name string) (*Tenant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[name]
	if !ok {
		return nil, fmt.Errorf("abase: unknown tenant %q", name)
	}
	return t, nil
}

// MonitorTrafficOnce runs one traffic-control cycle over the given
// window: node health probes (which fail over dead primaries), proxy
// quota enforcement (§4.2), and the heat monitor, which doubles a
// tenant's partitions when sustained per-partition heat exceeds
// ClusterConfig.HeatSplitThreshold. Production deployments call this
// on a ticker. It returns the tenants whose partition count was split
// this cycle (usually none).
func (c *Cluster) MonitorTrafficOnce(window time.Duration) []string {
	c.Meta.MonitorNodeHealth()
	c.Meta.MonitorProxyTraffic(window)
	return c.Meta.MonitorPartitionHeat()
}

// Close shuts down the cluster.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := append([]*datanode.Node(nil), c.nodes...)
	c.mu.Unlock()
	c.Meta.Close()
	var first error
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Fleet exposes the tenant's proxy fleet (experiments and stats).
func (t *Tenant) Fleet() *proxy.Fleet { return t.fleet }

// Quota returns the tenant's current RU quota.
func (t *Tenant) Quota() float64 { return t.meta.Quota.RU() }

// SetQuota updates the tenant quota and propagates the new proxy and
// partition shares (an autoscaler action). The partition walk reads a
// locked routing snapshot from the MetaServer rather than the live
// table, so it cannot race with heat-driven splits or failover route
// rewrites mutating the table concurrently.
func (t *Tenant) SetQuota(ru float64) {
	// Snapshot first: if the tenant somehow has no routing view, no
	// quota moves anywhere — never a half-applied state where proxies
	// run at the new quota while partitions keep the old one.
	view, err := t.cluster.Meta.RoutingView(t.Name)
	if err != nil {
		return
	}
	t.meta.Quota.SetRU(ru)
	perProxy := t.meta.Quota.ProxyQuota()
	for _, p := range t.fleet.Proxies() {
		p.SetQuota(perProxy)
	}
	perPartition := t.meta.Quota.PartitionQuota()
	for _, route := range view.Partitions {
		for _, host := range append([]string{route.Primary}, route.Followers...) {
			if n, err := t.cluster.Meta.Node(host); err == nil {
				n.SetPartitionQuota(route.Partition, perPartition)
			}
		}
	}
}

// Client returns a client handle bound to the tenant's proxy fleet.
func (t *Tenant) Client() *Client { return &Client{fleet: t.fleet} }

// Client is the application-facing handle: Redis-shaped operations
// routed through the proxy plane.
type Client struct {
	fleet *proxy.Fleet
	pref  ReadPreference
}

// SetReadPreference selects which replica serves this client's reads:
// ReadFollower opts a read-mostly client into staleness-bounded
// follower reads (and keeps its reads served while a primary is down);
// ReadPrimary (the default) restores primary reads. RESP sessions
// toggle this with READONLY/READWRITE.
func (c *Client) SetReadPreference(pref ReadPreference) { c.pref = pref }

// ReadPreference reports the client's current read preference.
func (c *Client) ReadPreference() ReadPreference { return c.pref }

// GetOption is a typed per-read option.
type GetOption func(*getOptions)

type getOptions struct {
	pref ReadPreference
}

// ReadFrom overrides the client's read preference for one Get: a
// latency-tolerant read can opt into a follower (or force the primary)
// without flipping the whole client's preference.
func ReadFrom(pref ReadPreference) GetOption {
	return func(o *getOptions) { o.pref = pref }
}

// SetOption is a typed per-write option for Set/SetWith.
type SetOption func(*proxy.PutOptions)

// WithTTL expires the key after ttl (Redis SET EX/PX).
func WithTTL(ttl time.Duration) SetOption {
	return func(o *proxy.PutOptions) { o.TTL = ttl }
}

// IfNotExists writes only when the key does not already exist (Redis
// SET NX). Mutually exclusive with IfExists.
func IfNotExists() SetOption {
	return func(o *proxy.PutOptions) { o.Cond = proxy.CondNX }
}

// IfExists writes only when the key already exists (Redis SET XX).
// Mutually exclusive with IfNotExists.
func IfExists() SetOption {
	return func(o *proxy.PutOptions) { o.Cond = proxy.CondXX }
}

// KeepTTL preserves the existing record's remaining TTL instead of
// clearing it (Redis SET KEEPTTL). Ignored when WithTTL is also given.
func KeepTTL() SetOption {
	return func(o *proxy.PutOptions) { o.KeepTTL = true }
}

// ReturnOld makes SetWith report the key's previous value (Redis
// SET ... GET).
func ReturnOld() SetOption {
	return func(o *proxy.PutOptions) { o.ReturnOld = true }
}

// SetResult reports a conditional write: whether it was applied, and
// the key's previous value when ReturnOld was requested.
type SetResult = proxy.SetResult

// Get reads a key. The context bounds the whole request: a canceled or
// deadline-expired ctx aborts the request wherever it is queued —
// proxy quota, DataNode admission queue, or WFQ — without executing.
func (c *Client) Get(ctx context.Context, key []byte, opts ...GetOption) ([]byte, error) {
	pref := c.pref
	if len(opts) > 0 {
		// The options see a heap copy: an option is an unknown func, so
		// what it is handed escapes, and a plain Get pays nothing for it.
		o := &getOptions{pref: pref}
		for _, opt := range opts {
			opt(o)
		}
		pref = o.pref
	}
	return c.fleet.GetPref(ctx, key, pref)
}

// setOptions folds opts into the proxy-level typed options; like Get's,
// they are built on the heap only when there are any.
func setOptions(opts []SetOption) proxy.PutOptions {
	if len(opts) == 0 {
		return proxy.PutOptions{}
	}
	o := new(proxy.PutOptions)
	for _, opt := range opts {
		opt(o)
	}
	return *o
}

// Set writes a key. Options select a TTL (WithTTL), conditional
// semantics (IfNotExists/IfExists — an unmet condition returns
// ErrConditionNotMet), TTL preservation (KeepTTL), or old-value
// retrieval (use SetWith for the value itself). Without options it is
// the plain write: the primary probes nothing.
func (c *Client) Set(ctx context.Context, key, value []byte, opts ...SetOption) error {
	res, err := c.SetWith(ctx, key, value, opts...)
	if err == nil && !res.Written {
		err = ErrConditionNotMet
	}
	return err
}

// SetWith is Set returning the full conditional-write outcome: whether
// the write applied, and (under ReturnOld) the previous value. An
// unmet NX/XX condition is reported via Written=false, not an error.
func (c *Client) SetWith(ctx context.Context, key, value []byte, opts ...SetOption) (SetResult, error) {
	return c.fleet.Route(key).PutWith(ctx, key, value, setOptions(opts))
}

// Delete removes a key, returning ErrNotFound when it does not exist.
func (c *Client) Delete(ctx context.Context, key []byte) error {
	return c.fleet.Route(key).Delete(ctx, key)
}

// FieldValue is one field/value pair of a multi-field hash write.
type FieldValue = proxy.FieldValue

// HSet sets a hash field, reporting 1 when the field is new.
func (c *Client) HSet(ctx context.Context, key []byte, field string, value []byte) (int, error) {
	return c.fleet.Route(key).HSet(ctx, key, field, value)
}

// HSetFields sets several hash fields in one proxy admission and one
// read-modify-write applied atomically on the primary (the multi-field
// HSET path), reporting how many fields were new. Duplicate fields apply
// left to right; the key's TTL is kept.
func (c *Client) HSetFields(ctx context.Context, key []byte, fields []FieldValue) (int, error) {
	return c.fleet.Route(key).HSetMulti(ctx, key, fields)
}

// HGet reads a hash field.
func (c *Client) HGet(ctx context.Context, key []byte, field string) ([]byte, error) {
	return c.fleet.Route(key).HGet(ctx, key, field)
}

// HLen returns a hash's field count.
func (c *Client) HLen(ctx context.Context, key []byte) (int, error) {
	return c.fleet.Route(key).HLen(ctx, key)
}

// HGetAll returns a hash's full contents.
func (c *Client) HGetAll(ctx context.Context, key []byte) (map[string][]byte, error) {
	return c.fleet.Route(key).HGetAll(ctx, key)
}

// HDel deletes hash fields, reporting how many existed.
func (c *Client) HDel(ctx context.Context, key []byte, fields ...string) (int, error) {
	return c.fleet.Route(key).HDel(ctx, key, fields...)
}

// MGet reads several keys through the batched proxy path: one quota
// admission and one DataNode round trip per sub-batch instead of one
// per key. Missing keys yield nil entries. When individual keys fail
// (e.g. throttled), the successful values are still returned and the
// error is a *BatchError carrying the per-key slots — one bad key no
// longer aborts the whole operation.
func (c *Client) MGet(ctx context.Context, keys ...[]byte) ([][]byte, error) {
	values, errs := c.fleet.BatchGet(ctx, keys)
	return values, batchError(errs, func(err error) bool {
		return errors.Is(err, ErrNotFound)
	})
}

// MSetPairs writes kvs in order as one batch per proxy sub-batch.
// Duplicate keys apply left to right (the last write wins). On partial
// failure the error is a *BatchError parallel to kvs.
func (c *Client) MSetPairs(ctx context.Context, kvs []KV) error {
	errs := c.fleet.BatchPut(ctx, kvs)
	return batchError(errs, nil)
}

// MDelete removes several keys as one batch per proxy sub-batch,
// reporting how many existed and were deleted. Absent keys are not an
// error; other per-key failures surface as a *BatchError alongside the
// count of keys that were deleted.
func (c *Client) MDelete(ctx context.Context, keys ...[]byte) (int, error) {
	errs := c.fleet.BatchDelete(ctx, keys)
	deleted := 0
	for _, err := range errs {
		if err == nil {
			deleted++
		}
	}
	return deleted, batchError(errs, func(err error) bool {
		return errors.Is(err, ErrNotFound)
	})
}

// MExists reports which keys currently exist without transferring
// values: proxy cache hits answer immediately and the rest use the
// DataNodes' value-free metadata check. exists is parallel to keys;
// per-key failures surface as a *BatchError.
func (c *Client) MExists(ctx context.Context, keys ...[]byte) ([]bool, error) {
	exists, errs := c.fleet.BatchExists(ctx, keys)
	return exists, batchError(errs, nil)
}

// TTL returns key's remaining time-to-live. hasTTL is false when the
// key exists without an expiry; ErrNotFound when the key is absent.
func (c *Client) TTL(ctx context.Context, key []byte) (ttl time.Duration, hasTTL bool, err error) {
	return c.fleet.Route(key).TTL(ctx, key)
}

// scanPageSize is the pre-filter page budget Keys and DBSize use for
// their internal cursor loops. Larger than SCAN's default because a
// full traversal amortizes better over fewer quota admissions.
const scanPageSize = 256

// Scan fetches one page of a distributed cursor traversal: pass "" (or
// the cursor from the previous page) and receive up to count keys plus
// the next cursor, "" when the traversal is complete. match is an
// optional Redis-style glob applied to returned keys (filtering is
// post-fetch, so a page may return fewer keys than count while the
// cursor still advances); count <= 0 uses the Redis default of 10.
//
// The traversal guarantee matches Redis SCAN: every key that exists
// for the scan's whole duration is returned at least once, keys
// written or deleted mid-scan may or may not appear, and a key can
// appear more than once (e.g. when a partition split rehashes it
// forward). A page may be short of count when a sub-scan was throttled
// mid-page; the returned cursor resumes at the unfinished spot.
func (c *Client) Scan(ctx context.Context, cursor string, match string, count int) (keys [][]byte, next string, err error) {
	// Keys only: SCAN returns no values, so fetching them would copy
	// and transfer payload just to discard it.
	page, err := c.fleet.Scan(ctx, cursor, proxy.ScanOptions{Match: match, Count: count, KeysOnly: true})
	if err != nil {
		// A deadline that expired mid-page still returns the gathered
		// keys and a cursor at the unfinished spot (see proxy.Scan).
		if page.Cursor != "" {
			return page.Keys, page.Cursor, err
		}
		return nil, cursor, err
	}
	return page.Keys, page.Cursor, nil
}

// Keys returns every key matching the Redis-style glob pattern ("*"
// for all), deduplicated across cursor pages. It drives a full Scan
// traversal, so it inherits Scan's guarantee and cost — intended for
// migrations, audits, and tests, not hot paths.
func (c *Client) Keys(ctx context.Context, match string) ([][]byte, error) {
	var out [][]byte
	err := c.traverse(ctx, match, func(k []byte) { out = append(out, k) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DBSize reports the number of live keys via a value-free full scan,
// deduplicated across cursor pages. Like Keys, it agrees with Get:
// expired-TTL records and tombstones are not counted.
func (c *Client) DBSize(ctx context.Context) (int64, error) {
	var n int64
	err := c.traverse(ctx, "", func([]byte) { n++ })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// traverse drives a full keys-only Scan traversal, calling fn once per
// distinct key that matches match ("" for all). While the tenant quota
// throttles sub-scans, partial pages return at once with a resumable
// cursor; without pacing, the traversal would spin on the quota, burning
// CPU to fetch nothing. So it waits between such pages, 1ms doubling up
// to 128ms, and gives up when ctx ends. Context deadlines are
// wall-clock, so the wait uses the real timer.
func (c *Client) traverse(ctx context.Context, match string, fn func(key []byte)) error {
	seen := make(map[string]struct{})
	cursor := ""
	wait := time.Millisecond
	backoff := func() error {
		t := time.NewTimer(wait)
		defer t.Stop()
		wait = min(2*wait, 128*time.Millisecond)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	for {
		page, err := c.fleet.Scan(ctx, cursor, proxy.ScanOptions{Match: match, Count: scanPageSize, KeysOnly: true})
		if err != nil {
			// A persistently throttled traversal backs off and retries
			// the same cursor instead of busy-spinning against the
			// quota, bounded by the caller's deadline.
			if errors.Is(err, ErrThrottled) {
				if werr := backoff(); werr != nil {
					return werr
				}
				continue
			}
			return err
		}
		for _, k := range page.Keys {
			if _, dup := seen[string(k)]; !dup {
				seen[string(k)] = struct{}{}
				fn(k)
			}
		}
		if page.Cursor == "" {
			return nil
		}
		cursor = page.Cursor
		if page.Throttled {
			// Partial page: the cursor advanced, but hammering the next
			// page immediately would hit the same empty bucket.
			if werr := backoff(); werr != nil {
				return werr
			}
		} else {
			wait = time.Millisecond
		}
	}
}

// Expire sets key's TTL, returning ErrNotFound for absent keys.
func (c *Client) Expire(ctx context.Context, key []byte, ttl time.Duration) error {
	return c.fleet.Route(key).Expire(ctx, key, ttl)
}

// Persist removes key's TTL, reporting whether an expiry was actually
// removed (false for keys stored without one); ErrNotFound for absent
// keys.
func (c *Client) Persist(ctx context.Context, key []byte) (bool, error) {
	return c.fleet.Route(key).Persist(ctx, key)
}

// HotKey is one tenant-level heavy hitter: a key and its windowed
// access-count estimate from the data plane's hotspot sketches.
type HotKey = proxy.HotKey

// HotKeys returns the tenant's k hottest keys (hottest first): every
// partition primary's heavy-hitter sketch merged with the proxy
// fleet's own admission sketches, so keys the AU-LRU is absorbing
// still surface. Counts are decayed window estimates, not lifetime
// totals; k <= 0 uses 10.
func (c *Client) HotKeys(ctx context.Context, k int) ([]HotKey, error) {
	return c.fleet.HotKeys(ctx, k)
}
