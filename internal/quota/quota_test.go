package quota

import (
	"testing"
	"time"

	"abase/internal/clock"
)

func simClock() *clock.Sim {
	return clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
}

func TestBucketAdmitsWithinRate(t *testing.T) {
	sim := simClock()
	b := NewBucket(100, 100, sim)
	// Starts full: 100 tokens available.
	for i := 0; i < 100; i++ {
		if !b.Allow(1, sim.Now()) {
			t.Fatalf("request %d rejected within burst", i)
		}
	}
	if b.Allow(1, sim.Now()) {
		t.Fatal("request beyond burst admitted")
	}
	sim.Advance(time.Second)
	if !b.Allow(100, sim.Now()) {
		t.Fatal("refill after 1s insufficient")
	}
}

func TestBucketPartialRefill(t *testing.T) {
	sim := simClock()
	b := NewBucket(100, 100, sim)
	b.Allow(100, sim.Now())
	sim.Advance(500 * time.Millisecond)
	if !b.Allow(50, sim.Now()) {
		t.Fatal("0.5s refill should admit 50")
	}
	if b.Allow(1, sim.Now()) {
		t.Fatal("over-admitted after partial refill")
	}
}

func TestBucketBurstCap(t *testing.T) {
	sim := simClock()
	b := NewBucket(10, 20, sim)
	sim.Advance(time.Hour) // long idle: tokens cap at burst
	if !b.Allow(20, sim.Now()) {
		t.Fatal("burst tokens unavailable")
	}
	if b.Allow(1, sim.Now()) {
		t.Fatal("tokens exceeded burst cap")
	}
}

func TestBucketBurstFloor(t *testing.T) {
	sim := simClock()
	b := NewBucket(100, 1, sim)
	// burst below rate is raised to rate
	if !b.Allow(100, sim.Now()) {
		t.Fatal("burst floor not applied")
	}
}

func TestBucketSetRate(t *testing.T) {
	sim := simClock()
	b := NewBucket(10, 10, sim)
	b.Allow(10, sim.Now())
	b.SetRate(1000, 1000)
	if b.Rate() != 1000 {
		t.Fatalf("Rate = %v", b.Rate())
	}
	sim.Advance(time.Second)
	if !b.Allow(1000, sim.Now()) {
		t.Fatal("new rate not applied")
	}
}

func TestBucketNegativeCost(t *testing.T) {
	sim := simClock()
	b := NewBucket(1, 1, sim)
	if !b.Allow(-5, sim.Now()) {
		t.Fatal("negative cost should be admitted as zero")
	}
}

func TestBucketStats(t *testing.T) {
	sim := simClock()
	b := NewBucket(1, 1, sim)
	if !b.Allow(1, sim.Now()) || b.Allow(1, sim.Now()) {
		t.Fatal("a 1 RU bucket did not admit one 1 RU request and refuse the next")
	}
	if b.Admitted() != 1 {
		t.Fatalf("Admitted = %d, want 1", b.Admitted())
	}
}

func TestTenantQuotaDivision(t *testing.T) {
	q := NewTenantQuota(1000, 10, 4)
	if q.ProxyQuota() != 100 {
		t.Fatalf("ProxyQuota = %v", q.ProxyQuota())
	}
	if q.PartitionQuota() != 250 {
		t.Fatalf("PartitionQuota = %v", q.PartitionQuota())
	}
	q.SetRU(2000)
	if q.ProxyQuota() != 200 {
		t.Fatalf("ProxyQuota after SetRU = %v", q.ProxyQuota())
	}
	q.SetPartitions(8)
	if q.PartitionQuota() != 250 {
		t.Fatalf("PartitionQuota after split = %v", q.PartitionQuota())
	}
	if q.Partitions() != 8 {
		t.Fatalf("Partitions = %d", q.Partitions())
	}
}

func TestTenantQuotaClampsCounts(t *testing.T) {
	q := NewTenantQuota(100, 0, 0)
	if q.ProxyQuota() != 100 || q.PartitionQuota() != 100 {
		t.Fatal("zero counts not clamped to 1")
	}
}

func TestProxyLimiterAutonomousBurst(t *testing.T) {
	sim := simClock()
	p := NewProxyLimiter(100, sim)
	// 2× autonomy: 200 RU available initially.
	admitted := 0
	for i := 0; i < 300; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted != 200 {
		t.Fatalf("admitted %d, want 200 (2× proxy quota)", admitted)
	}
}

func TestProxyLimiterRestrictRevert(t *testing.T) {
	sim := simClock()
	p := NewProxyLimiter(100, sim)
	p.Restrict()
	if !p.Restricted() {
		t.Fatal("not restricted")
	}
	sim.Advance(time.Second)
	admitted := 0
	for i := 0; i < 300; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted > 100 {
		t.Fatalf("restricted proxy admitted %d > standard quota", admitted)
	}
	p.Relax()
	if p.Restricted() {
		t.Fatal("still restricted after Relax")
	}
	sim.Advance(time.Second)
	admitted = 0
	for i := 0; i < 300; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted != 200 {
		t.Fatalf("relaxed proxy admitted %d, want 200", admitted)
	}
}

func TestProxyLimiterSetQuotaPreservesRestriction(t *testing.T) {
	sim := simClock()
	p := NewProxyLimiter(100, sim)
	p.Restrict()
	p.SetQuota(50)
	sim.Advance(time.Second)
	admitted := 0
	for i := 0; i < 200; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted > 50 {
		t.Fatalf("restricted quota update admitted %d", admitted)
	}
}

func TestPartitionLimiterTripleCeiling(t *testing.T) {
	sim := simClock()
	p := NewPartitionLimiter(1000, sim)
	if p.bucket.rate != 3000 {
		t.Fatalf("bucket rate = %v, want 3× the quota", p.bucket.rate)
	}
	admitted := 0
	for i := 0; i < 5000; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted != 3000 {
		t.Fatalf("admitted %d, want 3000 (3× partition quota)", admitted)
	}
}

func TestPartitionLimiterSetQuota(t *testing.T) {
	sim := simClock()
	p := NewPartitionLimiter(1000, sim)
	p.SetQuota(100)
	sim.Advance(time.Second)
	// Rate is now 300/s; bucket capacity 300.
	admitted := 0
	for i := 0; i < 1000; i++ {
		if p.Allow(1, sim.Now()) {
			admitted++
		}
	}
	if admitted != 300 {
		t.Fatalf("admitted %d after SetQuota, want 300", admitted)
	}
	if a := p.Admitted(); a != 300 {
		t.Fatalf("Admitted = %d, want 300", a)
	}
}

func TestSustainedRateConvergence(t *testing.T) {
	// Property-style check: over 10 simulated seconds, an aggressive
	// client through a 100 RU/s bucket gets ~100 RU/s (+burst).
	sim := simClock()
	b := NewBucket(100, 100, sim)
	total := 0
	for tick := 0; tick < 100; tick++ {
		for i := 0; i < 50; i++ {
			if b.Allow(1, sim.Now()) {
				total++
			}
		}
		sim.Advance(100 * time.Millisecond)
	}
	// 10s × 100/s = 1000 plus initial burst 100.
	if total < 1000 || total > 1150 {
		t.Fatalf("sustained admitted = %d, want ≈1100", total)
	}
}

// TestAllowOutOfOrderArrivals: concurrent callers read their arrival
// times before they reach the bucket's lock, so Allow can see a now
// older than the last refill. That call credits nothing and leaves the
// refill time where it is, and the next later now credits rate × the
// gap once.
func TestAllowOutOfOrderArrivals(t *testing.T) {
	sim := simClock()
	t0 := sim.Now()
	b := NewBucket(100, 100, sim)
	if !b.Allow(100, t0) {
		t.Fatal("a full bucket refused its burst")
	}
	late := t0.Add(200 * time.Millisecond) // credits 20
	if !b.Allow(20, late) || b.Allow(1, late) {
		t.Fatal("200ms at 100 RU/s did not credit exactly 20")
	}
	// An arrival read before late reaches the bucket after it.
	early := t0.Add(100 * time.Millisecond)
	if b.Allow(1, early) {
		t.Fatal("an arrival before the last refill was credited")
	}
	// Were the refill time moved back to early, this would credit 20.
	if b.Allow(1, late) {
		t.Fatal("a repeated arrival time credited the gap again")
	}
	later := late.Add(300 * time.Millisecond) // credits 30, once
	if !b.Allow(30, later) || b.Allow(1, later) {
		t.Fatal("300ms after the last refill did not credit exactly 30")
	}
	if b.Admitted() != 3 {
		t.Fatalf("Admitted = %d, want 3", b.Admitted())
	}
}

// TestRefundCreditsWithoutRefill: a refund credits its tokens without a refill,
// and the next Allow still credits the whole gap since the last one,
// both capped at burst.
func TestRefundCreditsWithoutRefill(t *testing.T) {
	sim := simClock()
	t0 := sim.Now()
	b := NewBucket(100, 100, sim)
	b.Allow(100, t0)
	b.Refund(30)
	if !b.Allow(30, t0) || b.Allow(1, t0) {
		t.Fatal("a refund of 30 did not credit exactly 30")
	}
	b.Refund(90)
	// 90 refunded + 50 accrued caps at the burst of 100.
	at := t0.Add(500 * time.Millisecond)
	if !b.Allow(100, at) || b.Allow(1, at) {
		t.Fatal("refund plus accrual was not capped at burst")
	}
}
