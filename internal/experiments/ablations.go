package experiments

import (
	"fmt"
	"sync"
	"time"

	"abase/internal/cache"
	"abase/internal/clock"
	"abase/internal/metaserver"
	"abase/internal/proxy"
	"abase/internal/wfq"
	"abase/internal/workload"
)

// AblationActiveUpdate compares the AU-LRU's active refresh against a
// plain TTL LRU under a hot-key workload on a simulated clock: when a
// hot entry's TTL expires without active update, every reader misses
// and stampedes the origin; with active update the entry is refreshed
// in place and origin fetches stay rare.
func AblationActiveUpdate() Table {
	run := func(withRefresh bool) (hitRatio float64, originFetches int) {
		sim := clock.NewSim(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
		fetches := 0
		var refresher cache.Refresher
		if withRefresh {
			refresher = func(key string) ([]byte, bool) {
				fetches++
				return []byte("fresh"), true
			}
		}
		c := cache.NewAULRU(cache.AUConfig{
			Capacity:      1 << 20,
			TTL:           time.Minute,
			RefreshWindow: 10 * time.Second,
			Clock:         sim,
			Refresher:     refresher,
		})
		hot := workload.NewZipfKeys(50, 2.0, 1)
		hits, lookups := 0, 0
		// 10 minutes of steady hot traffic, 20 lookups per second.
		for sec := 0; sec < 600; sec++ {
			for i := 0; i < 20; i++ {
				k := string(hot.Next())
				lookups++
				if _, ok := c.Get(k); ok {
					hits++
				} else {
					fetches++ // origin fetch to repopulate
					c.Put(k, []byte("v"))
				}
			}
			sim.Advance(time.Second)
		}
		return float64(hits) / float64(lookups), fetches
	}
	auHit, auFetches := run(true)
	plainHit, plainFetches := run(false)
	return Table{
		Title:  "Ablation: AU-LRU active update vs plain TTL LRU (hot keys, 10 min)",
		Header: []string{"policy", "hit ratio", "origin fetches"},
		Rows: [][]string{
			{"AU-LRU (active update)", pct(auHit), fmt.Sprint(auFetches)},
			{"plain TTL LRU", pct(plainHit), fmt.Sprint(plainFetches)},
		},
		Notes: []string{"shape target: active update prevents the periodic expiry stampede on hot keys"},
	}
}

// AblationFanout sweeps the limited fan-out group count n for a fixed
// fleet of N proxies, reporting the per-proxy cache hit ratio and the
// hot-key pressure (the share of one hot key's traffic landing on its
// single busiest proxy). Larger n → higher hit ratio (each proxy sees
// 1/n of the keyspace) but more hot-key pressure (only N/n proxies
// share a hot key). This is the tuning trade-off of §4.4.
func AblationFanout(ops int) Table {
	if ops <= 0 {
		ops = 20000
	}
	const proxies = 16
	t := Table{
		Title:  fmt.Sprintf("Ablation: limited fan-out sweep (N=%d proxies)", proxies),
		Header: []string{"groups n", "proxies per key (N/n)", "hit ratio", "hot-key max share"},
	}
	for _, groups := range []int{1, 2, 4, 8, 16} {
		s := newStack(metaserver.Config{}, 3, smallCacheNode, fmt.Sprintf("fanout-%d", groups), 4)
		fleet := s.fleet(proxy.Config{
			EnableCache: true,
			CacheBytes:  32 << 10,
			CacheTTL:    time.Hour,
			// Legacy cache-everything policy: this ablation isolates
			// routing fan-out, and its shape targets were calibrated
			// before hotness-gated admission existed.
			HotAdmitThreshold: -1,
		}, proxies, groups, int64(groups))
		const keys = 4000
		s.preload(keys, 512)
		gen := workload.NewZipfKeys(keys, 1.3, 5)
		for op := 0; op < ops; op++ {
			fleet.Get(bg, gen.Next())
		}
		// Hot-key pressure: route the single hottest key many times and
		// count the busiest proxy's share.
		hot := []byte(fmt.Sprintf("key-%012d", 0))
		counts := map[interface{}]int{}
		const probes = 2000
		for i := 0; i < probes; i++ {
			counts[fleet.Route(hot)]++
		}
		maxShare := 0.0
		for _, c := range counts {
			if s := float64(c) / probes; s > maxShare {
				maxShare = s
			}
		}
		st := fleet.AggregateStats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(groups),
			fmt.Sprintf("%.1f", float64(proxies)/float64(groups)),
			pct(st.HitRatio()),
			pct(maxShare),
		})
		s.close()
	}
	t.Notes = append(t.Notes,
		"larger n: higher per-proxy hit ratio; smaller n: a hot key spreads over more proxies")
	return t
}

// AblationVFT compares the cumulative-VFT weighted fair queue against
// plain FIFO when a flooding tenant shares a queue with a light
// tenant: the position at which the light tenant's requests complete
// shows whether fairness holds.
func AblationVFT() Table {
	run := func(fair bool) (lightMeanPos float64) {
		d := wfq.NewDualLayer(wfq.Config{CPUWorkers: 1})
		defer d.Close()
		var mu sync.Mutex
		pos := 0
		var lightPositions []int
		var wg sync.WaitGroup
		submit := func(tenant string, share float64) {
			wg.Add(1)
			d.Submit(&wfq.Task{
				Tenant:     tenant,
				QuotaShare: share,
				RUCost:     1,
				CPUStage:   func() bool { return false },
				Done: func() {
					mu.Lock()
					pos++
					if tenant == "light" {
						lightPositions = append(lightPositions, pos)
					}
					mu.Unlock()
					wg.Done()
				},
			})
		}
		// Flood first, then the light tenant's requests arrive. With
		// fair queueing (equal shares) the light tenant's VFT places it
		// near the virtual-time frontier; with FIFO semantics
		// (simulated by giving the flood an overwhelming share so its
		// weighted costs are negligible) the light tenant waits behind
		// the whole flood.
		floodShare, lightShare := 0.5, 0.5
		if !fair {
			floodShare, lightShare = 0.999999, 1e-9
		}
		for i := 0; i < 400; i++ {
			submit("flood", floodShare)
		}
		for i := 0; i < 10; i++ {
			submit("light", lightShare)
		}
		wg.Wait()
		var sum float64
		for _, p := range lightPositions {
			sum += float64(p)
		}
		return sum / float64(len(lightPositions))
	}
	fair := run(true)
	fifo := run(false)
	return Table{
		Title:  "Ablation: cumulative-VFT fairness vs FIFO-like ordering (flood + light tenant)",
		Header: []string{"scheduler", "light tenant mean completion position (of 410)"},
		Rows: [][]string{
			{"dual-layer WFQ (equal shares)", f(fair)},
			{"FIFO-like (degenerate shares)", f(fifo)},
		},
		Notes: []string{"shape target: VFT serves the light tenant early; FIFO buries it behind the flood"},
	}
}
