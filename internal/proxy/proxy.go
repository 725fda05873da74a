package proxy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"abase/internal/cache"
	"abase/internal/clock"
	"abase/internal/datanode"
	"abase/internal/hotspot"
	"abase/internal/metaserver"
	"abase/internal/metrics"
	"abase/internal/partition"
	"abase/internal/quota"
	"abase/internal/ru"
)

// ErrThrottled is returned when the proxy-level quota rejects a
// request, shielding DataNodes from the tenant's burst (§4.2).
var ErrThrottled = errors.New("proxy: tenant quota exceeded")

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("proxy: key not found")

// Config configures one proxy instance.
type Config struct {
	// Tenant is the owning tenant.
	Tenant string
	// ID names this proxy.
	ID string
	// Meta is the control plane (routing, traffic control).
	Meta *metaserver.Meta
	// Clock defaults to the real clock.
	Clock clock.Clock
	// CacheBytes sizes the AU-LRU (paper: proxy memory < 10 GB;
	// default 32 MiB). EnableCache alone decides whether there is one.
	CacheBytes int64
	// CacheTTL is the proxy cache entry lifetime. Default 10s.
	CacheTTL time.Duration
	// EnableCache turns the proxy AU-LRU on.
	EnableCache bool
	// ProxyQuota is this proxy's standard quota share in RU/s
	// (tenant quota / proxy count). It is always enforced, at 2× while
	// the proxy is not restricted (§4.2).
	ProxyQuota float64
	// HotAdmitThreshold gates AU-LRU admission on the proxy's
	// heavy-hitter sketch: a value a read fetched is inserted only once
	// its key's windowed access estimate reaches the threshold, and a
	// fill that would evict only if it also beats its victim (see
	// cacheFill), so cold singleton reads cannot churn hot entries out
	// of scarce proxy memory; a write earns no slot. 0 uses
	// DefaultHotAdmitThreshold; negative disables the gate (the legacy
	// cache-everything policy).
	HotAdmitThreshold int
}

// DefaultMaxFollowerLag bounds follower-read staleness in replication
// positions: a follower whose applied-write count trails its primary's
// by more than this serves no reads and the request falls through to
// the primary. When the primary is unreachable the bound is waived —
// during a failover window a bounded-stale answer beats no answer,
// which is the point of follower reads.
const DefaultMaxFollowerLag = 1024

// ReadPreference selects which replica serves a read.
type ReadPreference int

const (
	// ReadPrimary routes reads to the partition's primary replica
	// (read-your-writes for a single client; the default).
	ReadPrimary ReadPreference = iota
	// ReadFollower routes reads to a follower replica when one is
	// live and within the staleness bound (DefaultMaxFollowerLag),
	// falling back to the primary otherwise. Read-mostly tenants opt
	// in per connection (RESP READONLY) to keep serving through a
	// primary outage and to spread read load.
	ReadFollower
)

// DefaultHotAdmitThreshold admits a key into the AU-LRU on its second
// sketched access within the detection window: one access is noise,
// two is a candidate hot key. The count-min estimate never undercounts,
// so this holds at any traffic volume.
const DefaultHotAdmitThreshold = 2

// The admission sketch's shape. It decays with hotspot.DefaultWindow,
// like the data-plane sketches, so HOTKEYS can merge proxy and node
// counts on a common scale.
const (
	// hotTopK is the sketch's heavy-hitter summary size.
	hotTopK = 32
	// hotWidth is the sketch's count-min row width (~96 KiB of sketch
	// per proxy). It sets the collision mass, the window total over the
	// width: about what a cold key's estimate can gain from collisions.
	hotWidth = 4096
)

// Proxy is one tenant proxy.
type Proxy struct {
	cfg     Config
	cache   *cache.AULRU
	limiter *quota.ProxyLimiter
	est     *ru.Estimator
	// hot is the admission sketch, sharded like the AU-LRU; nil when
	// gating is disabled (then every fetched value is cached, the
	// pre-hotspot policy).
	hot          *hotspot.Sharded
	hotThreshold float64
	// estimate is hot.Estimate, bound once so a fill passes it to the
	// AU-LRU without allocating; nil when gating is disabled.
	estimate func(key string) float64
	// hitWeight is how many AU-LRU hits one sketch touch records (see
	// touchHit).
	hitWeight uint32
	// routes is the epoch-stamped routing-table cache (routecache.go).
	routes routeTable

	// reqs tallies the proxy's requests, one cell per P: Refused counts
	// proxy-quota throttles, Hits and Misses the AU-LRU, and RU the
	// billed RU of the traffic-control window WindowRU takes.
	reqs *metrics.Striped[metrics.Requests]
}

// New creates a proxy and registers it with the MetaServer for traffic
// control.
func New(cfg Config) (*Proxy, error) {
	if cfg.Meta == nil {
		return nil, errors.New("proxy: Meta is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 32 << 20
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = 10 * time.Second
	}
	p := &Proxy{
		cfg:     cfg,
		limiter: quota.NewProxyLimiter(cfg.ProxyQuota, cfg.Clock),
		est:     ru.NewEstimator(0),
		reqs:    metrics.NewStriped[metrics.Requests](),
	}
	if cfg.EnableCache {
		if cfg.HotAdmitThreshold >= 0 {
			threshold := cfg.HotAdmitThreshold
			if threshold == 0 {
				threshold = DefaultHotAdmitThreshold
			}
			shards := cache.Shards(cfg.CacheBytes)
			p.hot = hotspot.NewSharded(hotspot.Config{
				TopK:   hotTopK,
				Width:  hotWidth,
				Window: hotspot.DefaultWindow,
				Clock:  cfg.Clock,
			}, shards)
			p.estimate = p.hot.Estimate
			p.hitWeight = 1
			if shards > 1 {
				p.hitWeight = hitSample
			}
			// Half-count tolerance: counts decay by halves, so a key
			// read threshold times across a decay reads just under it.
			p.hotThreshold = float64(threshold) - 0.5
		}
		p.cache = cache.NewAULRU(cache.AUConfig{
			Capacity:  cfg.CacheBytes,
			TTL:       cfg.CacheTTL,
			Clock:     cfg.Clock,
			Refresher: p.refreshFromOrigin,
		})
	}
	cfg.Meta.RegisterProxy(p)
	return p, nil
}

// touchHot records one access at now in the admission sketch and
// returns the key's post-touch estimate (zero when gating is disabled;
// the proxy sketch is unsampled, so recording never skips). It is
// threaded to the fill so that decision does not re-lock the sketch for
// the candidate. Misses and writes touch it; hits go through touchHit.
func (p *Proxy) touchHot(key []byte, now time.Time) float64 {
	if p.hot == nil {
		return 0
	}
	return p.hot.Touch(key, now)
}

// hitSample is how many AU-LRU hits one sketch touch stands for when
// the cache is sharded (see touchHit).
const hitSample = 8

// touchHit records an AU-LRU hit. A sharded cache, one that serves many
// cores, records one hit in hitWeight, picked at random, at weight
// hitWeight: a hit key holds its slot already, and the sketch only
// weighs it against fills that would evict it, so the sample keeps the
// key's estimate unbiased while the other hits write nothing the cores
// share. A one-shard cache records every hit, exactly, as it keeps one
// exact LRU. The pick draws on the runtime's per-thread generator,
// which no two cores share.
func (p *Proxy) touchHit(key []byte, now time.Time) {
	if p.hot == nil || rand.Uint32()%p.hitWeight != 0 {
		return
	}
	p.hot.TouchN(key, float64(p.hitWeight), now)
}

// cacheFill inserts a fetched TTL-free value under the hotness gate,
// unless a write reached the key's AU-LRU shard since the miss. The
// key's estimate must reach the threshold; a fill that needs room must
// also beat the entry eviction takes next, which the AU-LRU weighs with
// the same sketch (see AULRU.FillAt), so a cold key cannot push out a
// resident of a scarce cache at any traffic volume.
func (p *Proxy) cacheFill(key, value []byte, acc access) {
	if p.cache != nil && (p.hot == nil || acc.est >= p.hotThreshold) {
		p.cache.FillAt(key, value, acc.at, acc.writes, acc.est, p.estimate)
	}
}

// cacheWriteThrough applies the write policy after a stored write. A
// TTL-free value writes through: an already-cached entry is always
// updated in place (coherence), but with gating on a write earns an
// uncached key no slot, only a read does: a key written and never read
// would only take up memory. An expiring value invalidates instead, so
// the AU-LRU never holds a copy that could outlive the record (see
// GetPref).
func (p *Proxy) cacheWriteThrough(key, value []byte, expiring bool, acc access) {
	switch {
	case p.cache == nil:
	case expiring:
		p.cache.Delete(key)
	case p.cache.UpdateAt(key, value, acc.at):
	case p.hot == nil:
		p.cache.PutAt(key, value, acc.at)
	}
}

// refreshFromOrigin is the AU-LRU active-update fetch: it reads the key
// directly from the primary DataNode, bypassing quota (system traffic).
// A record that acquired a TTL since it was cached reports not-found so
// the entry drops instead of outliving the record's expiry (the AU-LRU
// holds only TTL-free values; see GetPref).
func (p *Proxy) refreshFromOrigin(key string) ([]byte, bool) {
	ctx := context.Background()
	var res datanode.OpResult
	err := p.withRoute(ctx, []byte(key), func(node *datanode.Node, route partition.Route) error {
		var err error
		res, err = node.Get(ctx, route.Partition, []byte(key))
		return err
	})
	if err != nil || res.ExpireAt != 0 {
		return nil, false
	}
	return res.Value, true
}

// followerRead serves key from a live, sufficiently caught-up follower
// of route. served=false means no follower qualified and the caller
// should read the primary. When the primary is unreachable the
// staleness bound is waived: during a failover window a bounded-stale
// answer is exactly what follower reads are for.
func (p *Proxy) followerRead(ctx context.Context, primary *datanode.Node, route partition.Route, key []byte) (res datanode.OpResult, err error, served bool) {
	view, _ := p.routingView() // the zero view resolves no follower
	var primaryPos uint64
	primaryAlive := primary.Alive()
	if primaryAlive {
		primaryPos = primary.ReplicationPosition(route.Partition)
	}
	for _, f := range route.Followers {
		fn, nerr := view.Node(f)
		if nerr != nil || !fn.Alive() {
			continue
		}
		if primaryAlive {
			if fpos := fn.ReplicationPosition(route.Partition); fpos+DefaultMaxFollowerLag < primaryPos {
				continue // too stale; next candidate
			}
		}
		res, err = fn.Get(ctx, route.Partition, key)
		if retryableRouteErr(err) {
			continue // raced a failure; next candidate
		}
		// A follower's answer stands, including not-found: within the
		// lag bound that is legitimate bounded staleness.
		return res, err, true
	}
	return datanode.OpResult{}, nil, false
}

// Get reads key. Proxy cache hits return immediately without consuming
// any quota (§4.2); misses are admitted by the proxy limiter and routed
// to the primary DataNode.
func (p *Proxy) Get(ctx context.Context, key []byte) ([]byte, error) {
	return p.GetPref(ctx, key, ReadPrimary)
}

// GetPref is Get with an explicit read preference: ReadFollower lets a
// live, staleness-bounded follower serve the read (and keeps the key
// readable while its primary is down), falling back to the primary
// when no follower qualifies.
func (p *Proxy) GetPref(ctx context.Context, key []byte, pref ReadPreference) ([]byte, error) {
	var value []byte
	op := keyed{key: key, use: cacheRead, hit: &value}
	err := p.point(ctx, op, func(node *datanode.Node, route partition.Route, acc access) (float64, error) {
		fromFollower := false
		var res datanode.OpResult
		var err error
		if pref == ReadFollower {
			res, err, fromFollower = p.followerRead(ctx, node, route, key)
		}
		if !fromFollower {
			res, err = node.Get(ctx, route.Partition, key)
		}
		if err != nil {
			if errors.Is(err, datanode.ErrNotFound) {
				// The node performed the read; a miss still costs RU.
				p.est.ObserveRead(0, false)
			}
			return 0, err
		}
		p.est.ObserveRead(len(res.Value), res.CacheHit)
		// TTL-bearing values stay out of the AU-LRU: its entry TTL is
		// independent of the record's, so a cached copy could outlive
		// the record and make GET disagree with SCAN/KEYS/DBSIZE.
		// TTL-free values are admitted through the hotness gate —
		// except follower-read values, whose bounded staleness must
		// not leak into the cache other clients share.
		if res.ExpireAt == 0 && !fromFollower {
			p.cacheFill(key, res.Value, acc)
		}
		value = res.Value
		return res.RU, nil
	})
	return value, err
}

// Put writes key=value with an optional TTL through the proxy quota.
func (p *Proxy) Put(ctx context.Context, key, value []byte, ttl time.Duration) error {
	_, err := p.write(ctx, cacheWrite, datanode.Mutation{Key: key, Value: value, PutOptions: PutOptions{TTL: ttl}})
	return err
}

// PutOptions are the typed per-op options of a conditional write
// (re-exported from the data plane).
type PutOptions = datanode.PutOptions

// Conditional-write predicates (re-exported from the data plane).
const (
	// CondNone writes unconditionally.
	CondNone = datanode.CondNone
	// CondNX writes only when the key does not already exist.
	CondNX = datanode.CondNX
	// CondXX writes only when the key already exists.
	CondXX = datanode.CondXX
)

// SetResult reports one conditional write (re-exported from the data
// plane): Written is false when the NX/XX condition was not met (not an
// error); Old and OldExists describe the key before the write.
type SetResult = datanode.PutResult

// PutWith is the conditional form of Put (Redis SET NX/XX/KEEPTTL/GET):
// one proxy admission charged as a read-modify-write, one DataNode
// round trip that probes, evaluates, and writes atomically on the
// primary, replicated like any write.
func (p *Proxy) PutWith(ctx context.Context, key, value []byte, opts PutOptions) (SetResult, error) {
	return p.write(ctx, cacheWrite, datanode.Mutation{Key: key, Value: value, PutOptions: opts})
}

// Delete removes key, returning ErrNotFound for absent keys (still
// billed: the node probed it).
func (p *Proxy) Delete(ctx context.Context, key []byte) error {
	_, err := p.write(ctx, cacheInvalidate, datanode.Mutation{Kind: datanode.MutDelete, Key: key})
	return err
}

// --- metaserver.RestrictableProxy ---

// ProxyID implements metaserver.RestrictableProxy.
func (p *Proxy) ProxyID() string { return p.cfg.ID }

// TenantName implements metaserver.RestrictableProxy.
func (p *Proxy) TenantName() string { return p.cfg.Tenant }

// Restrict implements metaserver.RestrictableProxy.
func (p *Proxy) Restrict() { p.limiter.Restrict() }

// Relax implements metaserver.RestrictableProxy.
func (p *Proxy) Relax() { p.limiter.Relax() }

// WindowRU implements metaserver.RestrictableProxy: it returns and
// resets the RU admitted since the previous call.
func (p *Proxy) WindowRU() float64 {
	var ru float64
	p.reqs.Each(func(c *metrics.Requests) { ru += c.RU.Swap(0) })
	return ru
}

// Stats is a snapshot of proxy counters.
type Stats struct {
	Success  int64
	Rejected int64
	// Shed counts requests the data plane refused via deadline-aware
	// admission shedding (remaining budget below estimated queue wait).
	Shed      int64
	Errors    int64
	CacheHits int64
	CacheMiss int64
	// CacheRefreshes counts the AU-LRU's active updates: entries renewed
	// from the origin before they expired.
	CacheRefreshes int64
	LatencyP99     time.Duration
}

// HitRatio returns the proxy cache hit ratio.
func (s Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMiss
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	r := metrics.SumRequests(p.reqs)
	s := Stats{
		Success:    r.Success.Value(),
		Rejected:   r.Refused.Value(),
		Shed:       r.Shed.Value(),
		Errors:     r.Errors.Value(),
		CacheHits:  r.Hits.Value(),
		CacheMiss:  r.Misses.Value(),
		LatencyP99: r.Latency.Quantile(0.99),
	}
	if p.cache != nil {
		s.CacheRefreshes = p.cache.Refreshes()
	}
	return s
}

// ResetStats zeroes the proxy counters (experiment windows), the
// AU-LRU's refresh count included.
func (p *Proxy) ResetStats() {
	p.reqs.Each((*metrics.Requests).Reset)
	if p.cache != nil {
		p.cache.ResetStats()
	}
}

// SetQuota updates the proxy's standard quota share.
func (p *Proxy) SetQuota(q float64) { p.limiter.SetQuota(q) }

// Fleet is a tenant's N proxies organized into n groups for the
// limited fan-out hash strategy (§4.4): each key hashes to one group,
// and the request goes to a uniformly random proxy within that group.
// Larger n concentrates each key on fewer proxies (higher per-proxy hit
// ratio); smaller n spreads a hot key across more proxies (N/n each).
type Fleet struct {
	tenant  string
	groups  [][]*Proxy
	mu      sync.Mutex
	rng     *rand.Rand
	proxies []*Proxy
}

// NewFleet creates numProxies proxies in numGroups groups. cfg is the
// template configuration; IDs are derived from the tenant name.
func NewFleet(cfg Config, numProxies, numGroups int, seed int64) (*Fleet, error) {
	if numProxies < 1 {
		numProxies = 1
	}
	if numGroups < 1 || numGroups > numProxies {
		numGroups = numProxies
	}
	f := &Fleet{
		tenant: cfg.Tenant,
		groups: make([][]*Proxy, numGroups),
		rng:    rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < numProxies; i++ {
		c := cfg
		c.ID = fmt.Sprintf("%s-proxy-%d", cfg.Tenant, i)
		p, err := New(c)
		if err != nil {
			return nil, err
		}
		g := i % numGroups
		f.groups[g] = append(f.groups[g], p)
		f.proxies = append(f.proxies, p)
	}
	return f, nil
}

// Route returns the proxy that should serve key: hash to a group, then
// a random member of that group. A group of one (the default layout,
// one group per proxy) has nothing to draw.
func (f *Fleet) Route(key []byte) *Proxy {
	g := int(partition.Hash(key) % uint64(len(f.groups)))
	members := f.groups[g]
	if len(members) == 1 {
		return members[0]
	}
	f.mu.Lock()
	idx := f.rng.Intn(len(members))
	f.mu.Unlock()
	return members[idx]
}

// Get routes and reads key.
func (f *Fleet) Get(ctx context.Context, key []byte) ([]byte, error) {
	return f.Route(key).Get(ctx, key)
}

// GetPref routes and reads key with an explicit read preference
// (ReadFollower enables staleness-bounded follower reads).
func (f *Fleet) GetPref(ctx context.Context, key []byte, pref ReadPreference) ([]byte, error) {
	return f.Route(key).GetPref(ctx, key, pref)
}

// Put routes and writes key.
func (f *Fleet) Put(ctx context.Context, key, value []byte, ttl time.Duration) error {
	return f.Route(key).Put(ctx, key, value, ttl)
}

// Proxies returns all proxies in the fleet.
func (f *Fleet) Proxies() []*Proxy { return f.proxies }

// Tenant returns the owning tenant's name.
func (f *Fleet) Tenant() string { return f.tenant }

// AggregateStats sums the stats across the fleet.
func (f *Fleet) AggregateStats() Stats {
	var out Stats
	for _, p := range f.proxies {
		s := p.Stats()
		out.Success += s.Success
		out.Rejected += s.Rejected
		out.Shed += s.Shed
		out.Errors += s.Errors
		out.CacheHits += s.CacheHits
		out.CacheMiss += s.CacheMiss
		out.CacheRefreshes += s.CacheRefreshes
		if s.LatencyP99 > out.LatencyP99 {
			out.LatencyP99 = s.LatencyP99
		}
	}
	return out
}

// QuotaAdmissions counts the admissions the fleet's proxy quotas have
// granted: one per point op and one per proxy's share of a batch that
// went on to the data plane.
func (f *Fleet) QuotaAdmissions() (n int64) {
	for _, p := range f.proxies {
		n += p.limiter.Admitted()
	}
	return n
}

// ResetStats zeroes every proxy's counters.
func (f *Fleet) ResetStats() {
	for _, p := range f.proxies {
		p.ResetStats()
	}
}

// TTL returns key's remaining time-to-live through the proxy quota;
// hasTTL is false for keys stored without an expiry.
func (p *Proxy) TTL(ctx context.Context, key []byte) (ttl time.Duration, hasTTL bool, err error) {
	// A value-free metadata read: charged what the node admits it at.
	op := keyed{key: key, cost: p.est.EstimateHLenRU()}
	err = p.point(ctx, op, func(node *datanode.Node, route partition.Route, _ access) (float64, error) {
		var err error
		ttl, hasTTL, err = node.TTL(ctx, route.Partition, key)
		return op.cost, err
	})
	if err != nil {
		return 0, false, err
	}
	return ttl, hasTTL && ttl > 0, nil
}

// Expire sets key's TTL through the proxy quota: one read-modify-write
// on the primary, which keeps whatever value it finds there.
func (p *Proxy) Expire(ctx context.Context, key []byte, ttl time.Duration) error {
	_, err := p.write(ctx, cacheInvalidate, datanode.Mutation{Kind: datanode.MutSetTTL, Key: key, PutOptions: PutOptions{TTL: ttl}})
	return err
}

// Persist removes key's TTL through the proxy quota, reporting whether
// an expiry was removed (false for keys stored without one). The AU-LRU
// needs no invalidation: it never held the expiring value.
func (p *Proxy) Persist(ctx context.Context, key []byte) (bool, error) {
	res, err := p.write(ctx, cacheBypass, datanode.Mutation{Kind: datanode.MutClearTTL, Key: key})
	return res.Written, err
}

// HotKey is one tenant-level heavy hitter: a key and its windowed
// access-count estimate aggregated from the data plane.
type HotKey struct {
	Key   []byte
	Count float64
}

// HotKeys aggregates the tenant's heavy hitters across every partition
// primary: each DataNode's per-replica sketch contributes its top-k,
// and the merged list is returned hottest first, trimmed to k (k <= 0
// uses 10). This is the admin/observability path behind the HOTKEYS
// command; it bypasses quota like other control traffic.
func (p *Proxy) HotKeys(ctx context.Context, k int) ([]HotKey, error) {
	if k <= 0 {
		k = 10
	}
	view, err := p.routingView()
	if err != nil {
		return nil, err
	}
	var merged []hotspot.HotKey
	for _, route := range view.Partitions {
		// The per-partition fan-out honors cancellation between stops.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node, err := view.Node(route.Primary)
		if err != nil {
			continue // racing failover/repair; partial data is fine here
		}
		top, err := node.HotKeys(route.Partition, k)
		if err != nil {
			continue
		}
		merged = append(merged, top...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return merged[i].Key < merged[j].Key
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	out := make([]HotKey, len(merged))
	for i, hk := range merged {
		out[i] = HotKey{Key: []byte(hk.Key), Count: hk.Count}
	}
	return out, nil
}

// LocalHotKeys returns this proxy's own admission-sketch top-k. Unlike
// the data-plane sketches it sees every access — including the cache
// hits that, by design, never reach a DataNode once mitigation works.
// Nil when hotness gating is disabled.
func (p *Proxy) LocalHotKeys(k int) []hotspot.HotKey {
	if p.hot == nil {
		return nil
	}
	top := p.hot.TopK()
	if k > 0 && len(top) > k {
		top = top[:k]
	}
	return top
}

// HotKeys returns the tenant's heavy hitters, hottest first: the
// data-plane per-partition sketches merged with every proxy's own
// admission sketch. The proxy sketches matter because a well-mitigated
// hot key is served from the AU-LRU and stops reaching the data plane
// entirely — offered load, not just origin load, is what the admin
// wants to see. Where both planes report a key, the larger (offered)
// estimate wins; both decay with the same default window, so the
// counts compare on a common scale (a deployment overriding the
// DataNodes' HotWindow skews the merge toward the longer window).
func (f *Fleet) HotKeys(ctx context.Context, k int) ([]HotKey, error) {
	if k <= 0 {
		k = 10
	}
	nodeTop, err := f.proxies[0].HotKeys(ctx, k)
	if err != nil {
		return nil, err
	}
	best := make(map[string]float64, k*2)
	for _, hk := range nodeTop {
		if c := hk.Count; c > best[string(hk.Key)] {
			best[string(hk.Key)] = c
		}
	}
	for _, p := range f.proxies {
		for _, hk := range p.LocalHotKeys(k) {
			if hk.Count > best[hk.Key] {
				best[hk.Key] = hk.Count
			}
		}
	}
	merged := make([]HotKey, 0, len(best))
	for key, count := range best {
		merged = append(merged, HotKey{Key: []byte(key), Count: count})
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Count != merged[j].Count {
			return merged[i].Count > merged[j].Count
		}
		return string(merged[i].Key) < string(merged[j].Key)
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged, nil
}
