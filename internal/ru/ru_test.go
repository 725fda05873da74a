package ru

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWriteRU(t *testing.T) {
	// 2KB value, 3 replicas → 3 RU.
	if got := WriteRU(2048, 3); got != 3 {
		t.Fatalf("WriteRU(2048,3) = %v", got)
	}
	// 4KB, 1 replica → 2 RU.
	if got := WriteRU(4096, 1); got != 2 {
		t.Fatalf("WriteRU(4096,1) = %v", got)
	}
	// Replica count below 1 is clamped.
	if got := WriteRU(2048, 0); got != 1 {
		t.Fatalf("WriteRU(2048,0) = %v", got)
	}
}

func TestWriteRUMinimumCharge(t *testing.T) {
	if got := WriteRU(0, 1); got <= 0 {
		t.Fatalf("zero-byte write charged %v", got)
	}
}

func TestReadRU(t *testing.T) {
	if got := ReadRU(2048, 0); got != 1 {
		t.Fatalf("miss read = %v", got)
	}
	if got := ReadRU(2048, 1); got != 0 {
		t.Fatalf("hit read = %v", got)
	}
	if got := ReadRU(2048, 0.5); got != 0.5 {
		t.Fatalf("half-hit read = %v", got)
	}
}

func TestReadRUClampsHitRatio(t *testing.T) {
	if got := ReadRU(2048, -1); got != 1 {
		t.Fatalf("clamped low = %v", got)
	}
	if got := ReadRU(2048, 2); got != 0 {
		t.Fatalf("clamped high = %v", got)
	}
}

func TestEstimatorDefaults(t *testing.T) {
	e := NewEstimator(0)
	if e.ExpectedReadSize() != UnitBytes {
		t.Fatalf("default size = %v", e.ExpectedReadSize())
	}
	if e.ExpectedHitRatio() != 0 {
		t.Fatalf("default hit = %v", e.ExpectedHitRatio())
	}
	// Default estimate: one unit-size read with no cache discount.
	if got := e.EstimateReadRU(); got != 1 {
		t.Fatalf("default estimate = %v", got)
	}
}

func TestEstimatorTracksObservations(t *testing.T) {
	e := NewEstimator(4)
	for i := 0; i < 4; i++ {
		e.ObserveRead(4096, i%2 == 0) // alternate hit/miss, all 4KB
	}
	if got := e.ExpectedReadSize(); got != 4096 {
		t.Fatalf("E[S] = %v", got)
	}
	if got := e.ExpectedHitRatio(); got != 0.5 {
		t.Fatalf("E[hit] = %v", got)
	}
	// 4096/2048 * (1-0.5) = 1.0
	if got := e.EstimateReadRU(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("estimate = %v", got)
	}
}

func TestEstimatorWindowSlides(t *testing.T) {
	e := NewEstimator(2)
	e.ObserveRead(100, false)
	e.ObserveRead(100, false)
	e.ObserveRead(5000, true)
	e.ObserveRead(5000, true)
	if got := e.ExpectedReadSize(); got != 5000 {
		t.Fatalf("window did not slide: %v", got)
	}
	if got := e.ExpectedHitRatio(); got != 1 {
		t.Fatalf("hit ratio = %v", got)
	}
}

// TestReadBatchMatchesObserveRead: a ReadBatch teaches the estimator
// exactly what the same reads through ObserveRead would, in order — here
// across several flushes and a window that slides mid-batch.
func TestReadBatchMatchesObserveRead(t *testing.T) {
	one, batched := NewEstimator(24), NewEstimator(24)
	var b ReadBatch
	for i := 0; i < 3*readBatchLen+5; i++ {
		size, hit := 64+i*37%1000, i%3 == 0
		one.ObserveRead(size, hit)
		b.Add(batched, size, hit)
	}
	b.Flush(batched)
	b.Flush(batched) // an empty flush changes nothing
	if one.ExpectedReadSize() != batched.ExpectedReadSize() || one.ExpectedHitRatio() != batched.ExpectedHitRatio() {
		t.Fatalf("batched E[S] %v, E[hit] %v; one by one %v, %v",
			batched.ExpectedReadSize(), batched.ExpectedHitRatio(), one.ExpectedReadSize(), one.ExpectedHitRatio())
	}
}

func TestComplexOpEstimates(t *testing.T) {
	e := NewEstimator(8)
	// Hashes of 100 fields × 1KB values, always missing cache.
	for i := 0; i < 8; i++ {
		e.ObserveCollectionLen(100)
		e.ObserveRead(1024, false)
	}
	hlen := e.EstimateHLenRU()
	if hlen <= 0 || hlen > 1 {
		t.Fatalf("HLen RU = %v", hlen)
	}
	// HGetAll ≈ HLen + 100 × 1024/2048 = HLen + 50.
	want := hlen + 50
	if got := e.EstimateHGetAllRU(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("HGetAll RU = %v, want %v", got, want)
	}
}

func TestPropertyReadRUNonNegativeAndMonotone(t *testing.T) {
	f := func(size uint16, hitQ uint8) bool {
		hit := float64(hitQ) / 255
		v := ReadRU(int(size), hit)
		if v < 0 {
			return false
		}
		// More cache hits never increases RU.
		return ReadRU(int(size), 1) <= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWriteRUScalesWithReplicas(t *testing.T) {
	f := func(size uint16, r uint8) bool {
		rep := int(r%5) + 1
		base := WriteRU(int(size), 1)
		return math.Abs(WriteRU(int(size), rep)-float64(rep)*base) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadEstimateFloor: reads that all hit a node cache still estimate
// the metadata floor, never 0, which an empty token bucket admits.
func TestReadEstimateFloor(t *testing.T) {
	e := NewEstimator(2)
	e.ObserveRead(5000, true)
	e.ObserveRead(5000, true)
	if got := e.EstimateReadRU(); got != minReadRU || got != e.EstimateHLenRU() {
		t.Fatalf("all-hit read estimate = %v, want the %v floor", got, minReadRU)
	}
}
