package quota

import (
	"sync"
	"time"

	"abase/internal/clock"
)

// Bucket is a token-bucket rate limiter denominated in RU. Tokens
// accrue at Rate per second up to Burst. Safe for concurrent use.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	clk    clock.Clock

	allowed int64

	// Cumulative RU ledger for the soak harness's balance invariant:
	// every admitted charge and every refund is totalled so that
	// charged − refunded can be reconciled against billed work.
	chargedRU  float64
	refundedRU float64
}

// NewBucket returns a bucket refilling at rate RU/s with capacity
// burst. A nil clk uses the real clock. The bucket starts full.
func NewBucket(rate, burst float64, clk clock.Clock) *Bucket {
	if clk == nil {
		clk = clock.Real{}
	}
	if burst < rate {
		burst = rate
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: clk.Now(), clk: clk}
}

// refillLocked credits tokens accrued since the last refill, capped at
// burst.
// +locked:b.mu
func (b *Bucket) refillLocked(now time.Time) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Allow consumes cost tokens if available, reporting whether the
// request is admitted. now is the request's arrival time, read once by
// its plane: the bucket first credits what accrued up to now. Callers
// race, so a now at or before the last refill credits nothing and
// leaves the refill time where it is; the next later now credits the
// whole gap once.
func (b *Bucket) Allow(cost float64, now time.Time) bool {
	if cost < 0 {
		cost = 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens >= cost {
		b.tokens -= cost
		b.allowed++
		b.chargedRU += cost
		return true
	}
	return false
}

// Refund returns cost tokens to the bucket, capped at burst. It undoes
// an Allow whose request did no work downstream (node down, stale
// route, deadline shed before admission): the tenant should not pay RU
// for work the system never performed. Refunds never rewrite the
// allowed counter — the admission decision did happen.
// Refund reads no clock: crediting the refund before the accrual since
// the last refill, both capped at burst, leaves the same tokens as
// crediting it after.
func (b *Bucket) Refund(cost float64) {
	if cost <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += cost
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.refundedRU += cost
}

// SetRate updates the refill rate and burst, preserving accrued tokens
// up to the new burst.
func (b *Bucket) SetRate(rate, burst float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.clk.Now())
	if burst < rate {
		burst = rate
	}
	b.rate, b.burst = rate, burst
	if b.tokens > burst {
		b.tokens = burst
	}
}

// Now reads the bucket's clock, for a caller that has no arrival time
// of its own to pass to Allow (the WFQ's write ceiling).
func (b *Bucket) Now() time.Time { return b.clk.Now() }

// Rate returns the current refill rate.
func (b *Bucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// Admitted returns the requests the bucket has admitted; each refusal
// is counted by the caller that was refused.
func (b *Bucket) Admitted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allowed
}

// RUTotals returns the cumulative RU charged by admissions and
// returned by refunds. The net (charged − refunded) is the RU this
// bucket actually billed for admitted work; the soak harness checks
// it against the work the data plane reports having done.
func (b *Bucket) RUTotals() (charged, refunded float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.chargedRU, b.refundedRU
}

// TenantQuota describes a tenant's purchased capacity and its division
// across proxies and partitions.
type TenantQuota struct {
	mu         sync.RWMutex
	tenantRU   float64 // total RU/s
	proxies    int
	partitions int
}

// NewTenantQuota returns a tenant quota of ru RU/s, divided across the
// given proxy and partition counts (minimum 1 each).
func NewTenantQuota(ru float64, proxies, partitions int) *TenantQuota {
	if proxies < 1 {
		proxies = 1
	}
	if partitions < 1 {
		partitions = 1
	}
	return &TenantQuota{tenantRU: ru, proxies: proxies, partitions: partitions}
}

// RU returns the tenant's total RU/s quota.
func (q *TenantQuota) RU() float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.tenantRU
}

// SetRU updates the tenant RU quota (autoscaler scaling decision).
func (q *TenantQuota) SetRU(ru float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tenantRU = ru
}

// SetPartitions updates the partition count (after a split).
func (q *TenantQuota) SetPartitions(n int) {
	if n < 1 {
		n = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.partitions = n
}

// Partitions returns the current partition count.
func (q *TenantQuota) Partitions() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.partitions
}

// ProxyQuota returns each proxy's standard share: tenant RU / proxies.
func (q *TenantQuota) ProxyQuota() float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.tenantRU / float64(q.proxies)
}

// PartitionQuota returns each partition's share: tenant RU / partitions.
func (q *TenantQuota) PartitionQuota() float64 {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.tenantRU / float64(q.partitions)
}

// ProxyBurstFactor is the autonomy multiplier each proxy may reach
// before the MetaServer reins it back (§4.2).
const ProxyBurstFactor = 2.0

// PartitionBurstFactor caps a single partition at three times its
// share (§4.2).
const PartitionBurstFactor = 3.0

// ProxyLimiter is the per-proxy admission controller. It normally
// admits up to ProxyBurstFactor × proxy_quota autonomously; when the
// MetaServer detects tenant-wide overage it directs the proxy to revert
// to the standard quota via Restrict.
type ProxyLimiter struct {
	bucket     *Bucket
	quota      float64
	mu         sync.Mutex
	restricted bool
}

// NewProxyLimiter returns a limiter for one proxy with the given
// standard proxy_quota in RU/s.
func NewProxyLimiter(proxyQuota float64, clk clock.Clock) *ProxyLimiter {
	rate := proxyQuota * ProxyBurstFactor
	return &ProxyLimiter{
		bucket: NewBucket(rate, rate, clk),
		quota:  proxyQuota,
	}
}

// Allow admits a request of the given RU cost arriving at now.
func (p *ProxyLimiter) Allow(cost float64, now time.Time) bool { return p.bucket.Allow(cost, now) }

// Refund returns cost RU charged by Allow for a request that did no
// downstream work.
func (p *ProxyLimiter) Refund(cost float64) { p.bucket.Refund(cost) }

// Restrict reverts the proxy to its standard quota (MetaServer
// direction after tenant-wide overage).
func (p *ProxyLimiter) Restrict() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.restricted {
		p.restricted = true
		p.bucket.SetRate(p.quota, p.quota)
	}
}

// Relax restores the 2× autonomous burst allowance.
func (p *ProxyLimiter) Relax() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.restricted {
		p.restricted = false
		rate := p.quota * ProxyBurstFactor
		p.bucket.SetRate(rate, rate)
	}
}

// Restricted reports whether the proxy is currently reverted to its
// standard quota.
func (p *ProxyLimiter) Restricted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restricted
}

// SetQuota updates the standard proxy_quota (rescaling or proxy-count
// changes), preserving the current restriction state.
func (p *ProxyLimiter) SetQuota(proxyQuota float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quota = proxyQuota
	rate := proxyQuota
	if !p.restricted {
		rate *= ProxyBurstFactor
	}
	p.bucket.SetRate(rate, rate)
}

// Admitted returns the requests the bucket has admitted.
func (p *ProxyLimiter) Admitted() int64 { return p.bucket.Admitted() }

// RUTotals exposes the bucket's cumulative charge/refund ledger.
func (p *ProxyLimiter) RUTotals() (charged, refunded float64) { return p.bucket.RUTotals() }

// PartitionLimiter enforces the 3× partition_quota ceiling at the
// DataNode request-queue entry point.
type PartitionLimiter struct {
	bucket *Bucket
}

// NewPartitionLimiter returns a limiter admitting up to
// PartitionBurstFactor × partition_quota RU/s.
func NewPartitionLimiter(partitionQuota float64, clk clock.Clock) *PartitionLimiter {
	rate := partitionQuota * PartitionBurstFactor
	return &PartitionLimiter{bucket: NewBucket(rate, rate, clk)}
}

// Allow admits a request of the given RU cost arriving at now.
func (p *PartitionLimiter) Allow(cost float64, now time.Time) bool { return p.bucket.Allow(cost, now) }

// Refund returns cost RU charged by Allow for a request that did no
// downstream work.
func (p *PartitionLimiter) Refund(cost float64) { p.bucket.Refund(cost) }

// SetQuota updates the partition quota (after scaling or splits).
func (p *PartitionLimiter) SetQuota(partitionQuota float64) {
	rate := partitionQuota * PartitionBurstFactor
	p.bucket.SetRate(rate, rate)
}

// Admitted returns the requests the bucket has admitted.
func (p *PartitionLimiter) Admitted() int64 { return p.bucket.Admitted() }

// RUTotals exposes the bucket's cumulative charge/refund ledger.
func (p *PartitionLimiter) RUTotals() (charged, refunded float64) { return p.bucket.RUTotals() }
