package hotspot

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"abase/internal/clock"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// TestTopKRecallAdversarial drives the detector with hot keys whose
// repetitions are interleaved with a flood of cold singletons — the
// adversarial shape for Space-Saving, which must not let the cold
// stream churn the heavy hitters out of the summary. Recall is checked
// against exact counts.
func TestTopKRecallAdversarial(t *testing.T) {
	const hot = 8
	d := NewDetector(Config{TopK: hot * 2, Window: time.Hour})
	exact := map[string]float64{}
	rng := rand.New(rand.NewSource(7))
	cold := 0
	for round := 0; round < 400; round++ {
		// Each round: every hot key a few times, then a burst of
		// never-repeating cold keys between them.
		for h := 0; h < hot; h++ {
			reps := 2 + h%3
			for r := 0; r < reps; r++ {
				k := key(h)
				d.Touch(k, time.Now())
				exact[string(k)]++
				// Adversarial interleaving: cold keys separate every
				// hot repetition.
				for c := 0; c < 1+rng.Intn(3); c++ {
					cold++
					ck := []byte(fmt.Sprintf("cold-%09d", cold))
					d.Touch(ck, time.Now())
					exact[string(ck)]++
				}
			}
		}
	}
	top := d.TopK()
	inTop := map[string]bool{}
	for _, hk := range top {
		inTop[hk.Key] = true
	}
	for h := 0; h < hot; h++ {
		if !inTop[string(key(h))] {
			t.Fatalf("hot key %s missing from top-k: %v", key(h), top)
		}
	}
	// Reported counts track exact counts: the estimate never falls
	// below truth and overshoots by at most the cold-collision mass.
	for _, hk := range top {
		want := exact[hk.Key]
		if want < 100 {
			continue // a cold key that slipped in; precision not asserted
		}
		if hk.Count < want {
			t.Fatalf("%s: top-k count %.0f underestimates exact %.0f", hk.Key, hk.Count, want)
		}
		if hk.Count > want*1.5 {
			t.Fatalf("%s: top-k count %.0f overshoots exact %.0f", hk.Key, hk.Count, want)
		}
	}
	// Count-min point estimates never underestimate.
	for h := 0; h < hot; h++ {
		k := key(h)
		if est := d.Estimate(k); est < exact[string(k)] {
			t.Fatalf("estimate %.0f < exact %.0f for %s", est, exact[string(k)], k)
		}
	}
}

// TestEstimateColdKeysStayCold checks that keys touched once keep small
// estimates (bounded collision noise) while hot keys dominate.
func TestEstimateColdKeysStayCold(t *testing.T) {
	d := NewDetector(Config{Width: 1024, Depth: 4, Window: time.Hour})
	hotKey := []byte("the-hot-key")
	for i := 0; i < 5000; i++ {
		d.Touch(hotKey, time.Now())
		d.Touch(key(i), time.Now()) // each cold key exactly once
	}
	if est := d.Estimate(hotKey); est < 5000 {
		t.Fatalf("hot estimate %.0f < 5000", est)
	}
	overs := 0
	for i := 0; i < 1000; i++ {
		if d.Estimate(key(i)) > 100 {
			overs++
		}
	}
	// A few CMS collisions with the hot counter are expected; most
	// cold keys must report near-singleton counts.
	if overs > 50 {
		t.Fatalf("%d/1000 cold keys grossly overestimated", overs)
	}
}

// TestWindowDecay verifies counts halve per elapsed window so stale
// bursts stop looking hot.
func TestWindowDecay(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	d := NewDetector(Config{Window: time.Second, Clock: clk})
	k := []byte("burst")
	for i := 0; i < 1024; i++ {
		d.Touch(k, clk.Now())
	}
	if est := d.Estimate(k); est != 1024 {
		t.Fatalf("pre-decay estimate %.0f", est)
	}
	clk.Advance(2 * time.Second) // two halvings
	if est := d.Estimate(k); est != 256 {
		t.Fatalf("post-decay estimate %.0f, want 256", est)
	}
	clk.Advance(time.Minute)
	if est := d.Estimate(k); est > 0.001 {
		t.Fatalf("stale burst still hot: %.4f", est)
	}
	if top := d.TopK(); len(top) != 0 {
		t.Fatalf("stale burst still in top-k: %v", top)
	}
}

// TestSampledTouchUnbiased checks that sampling scales the recorded
// weight so estimates stay unbiased for keys well above the sample
// period.
func TestSampledTouchUnbiased(t *testing.T) {
	d := NewDetector(Config{SampleRate: 8, Window: time.Hour})
	k := []byte("sampled-hot")
	for i := 0; i < 8000; i++ {
		d.Touch(k, time.Now())
	}
	est := d.Estimate(k)
	if est < 7000 || est > 9000 {
		t.Fatalf("sampled estimate %.0f, want ≈8000", est)
	}
}

// TestDetectorConcurrent hammers Touch/Estimate/TopK from many
// goroutines (meaningful under -race).
func TestDetectorConcurrent(t *testing.T) {
	d := NewDetector(Config{SampleRate: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d.Touch(key(i%50), time.Now())
				if i%100 == 0 {
					d.Estimate(key(g))
					d.TopK()
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Total() <= 0 {
		t.Fatal("no weight recorded")
	}
}

// TestMeterRate verifies the EWMA meter converges to the offered rate
// and decays when traffic stops.
func TestMeterRate(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	m := NewMeter(10*time.Second, clk)
	// 100 events/s for 60s (several time constants).
	for i := 0; i < 600; i++ {
		m.Add(10, clk.Now())
		clk.Advance(100 * time.Millisecond)
	}
	r := m.Rate()
	if r < 80 || r > 120 {
		t.Fatalf("steady rate %.1f, want ≈100", r)
	}
	clk.Advance(100 * time.Second) // 10 time constants idle
	if r := m.Rate(); r > 1 {
		t.Fatalf("idle rate %.2f did not decay", r)
	}

	// A burst inside one fold step, from many goroutines, is counted
	// whole, and decays from when it arrived however late it is folded.
	m.Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Add(1, clk.Now())
			}
		}()
	}
	wg.Wait()
	if r := m.Rate(); r != 8000/10 {
		t.Fatalf("a burst of 8000 at one instant reads %v events/s, want 800", r)
	}
	m.Add(1000, clk.Now()) // inside the step: pending until the next fold
	clk.Advance(100 * time.Second)
	if r := m.Rate(); r > 1 {
		t.Fatalf("a burst folded after 10 idle time constants reads %.2f events/s, want it decayed", r)
	}
}

// TestShardedNeverUnderestimates drives a 16-shard sketch with a skewed
// stream: the estimate each touch returns, and every key's estimate
// afterwards, is at least its exact count, the estimate a caller reads
// is the routed shard's, and every shard gets keys. Each shard's summary
// holds its share of TopK, four keys, so the merged TopK holds every key
// that Space-Saving guarantees a shard keeps — one seen more often than
// a quarter of its shard's touches — each with a count at least its
// exact one.
func TestShardedNeverUnderestimates(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	s := NewSharded(Config{TopK: 64, Width: 4096, Window: time.Hour, Clock: clk}, 16)
	exact := map[string]float64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40000; i++ {
		// Zipf-like: key r in 1..2000 is drawn with probability
		// about 1/(r(r+1)).
		k := key(int(2000 / (1 + rng.Float64()*1999)))
		exact[string(k)]++
		if est := s.Touch(k, clk.Now()); est < exact[string(k)] {
			t.Fatalf("touch %d of %s: estimate %v, %v touches", i, k, est, exact[string(k)])
		}
	}
	for k, n := range exact {
		if est := s.Estimate(k); est < n {
			t.Fatalf("key %s: estimate %.0f below its %v touches", k, est, n)
		}
		if got, want := s.Estimate(k), s.shard(fnv1a(k)).Estimate([]byte(k)); got != want {
			t.Fatalf("key %s: estimate %v, its shard says %v", k, got, want)
		}
	}
	for i, d := range s.shards {
		if d.Total() == 0 { // keys that differ in their last bytes spread
			t.Fatalf("shard %d of 16 saw none of %d keys", i, len(exact))
		}
	}
	top := s.TopK()
	inTop := map[string]HotKey{}
	for _, hk := range top {
		inTop[hk.Key] = hk
		if hk.Count < exact[hk.Key] {
			t.Fatalf("TopK %s: count %.0f below its %v touches", hk.Key, hk.Count, exact[hk.Key])
		}
	}
	guaranteed := 0
	for k, n := range exact {
		d := s.shard(fnv1a(k))
		if n > d.Total()/4 {
			guaranteed++
			if _, ok := inTop[k]; !ok {
				t.Fatalf("key %s: %v of its shard's %v touches, missing from TopK", k, n, d.Total())
			}
		}
	}
	if guaranteed == 0 {
		t.Fatal("no key is a heavy hitter of its shard")
	}
}

// TestShardedTopKMergesShards: the sharded TopK is the shards' own
// summaries merged, hottest first, cut to the configured size; one
// shard is exactly one Detector.
func TestShardedTopKMergesShards(t *testing.T) {
	clk := clock.NewSim(time.Unix(0, 0))
	cfg := Config{TopK: 8, Width: 1024, Window: time.Hour, Clock: clk}
	s := NewSharded(cfg, 4)
	one, d := NewSharded(cfg, 1), NewDetector(cfg)
	for i := 0; i < 5000; i++ {
		k := key(i % (1 + i%97))
		s.Touch(k, clk.Now())
		if got, want := one.Touch(k, clk.Now()), d.Touch(k, clk.Now()); got != want {
			t.Fatalf("touch %d: one-shard estimate %v, Detector %v", i, got, want)
		}
	}
	var merged []HotKey
	for _, sh := range s.shards {
		merged = append(merged, sh.TopK()...)
	}
	sortHot(merged)
	if got, want := fmt.Sprint(s.TopK()), fmt.Sprint(merged[:8]); got != want {
		t.Fatalf("TopK %s\nmerge %s", got, want)
	}
	if got, want := fmt.Sprint(one.TopK()), fmt.Sprint(d.TopK()); got != want {
		t.Fatalf("one shard's TopK %s, Detector's %s", got, want)
	}
}
