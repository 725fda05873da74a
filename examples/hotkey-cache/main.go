// Hotkey-cache: demonstrates the proxy-layer AU-LRU cache and the
// limited fan-out hash routing strategy (§4.4) absorbing a hot-key
// event — the scenario behind Table 2.
//
// An e-commerce tenant serves skewed (Zipf) read traffic. We compare
// random routing (each key may land on any proxy, so every small proxy
// cache thrashes over the full keyspace) against limited fan-out hash
// routing (each key maps to one proxy group), and report per-proxy hit
// ratios and how many reads got past the proxies to a DataNode. (Not
// the DataNodes' RU: every such read is a node-cache hit here, which
// the DataNode bills at zero.)
package main

import (
	"context"
	"fmt"
	"log"

	"abase"
	"abase/internal/workload"
)

// nodeRequests sums the requests the cluster's DataNodes served the
// tenant.
func nodeRequests(cluster *abase.Cluster, tenant string) (n int64) {
	for _, node := range cluster.Nodes() {
		n += node.TenantStats(tenant).Success
	}
	return n
}

func run(groups int) (hitRatio float64, nodeReads int64) {
	cluster, err := abase.NewCluster(abase.ClusterConfig{Nodes: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	tenant, err := cluster.CreateTenant(abase.TenantSpec{
		Name:            "shop",
		QuotaRU:         1e9,
		Partitions:      4,
		Proxies:         8,
		ProxyGroups:     groups,
		ProxyCacheBytes: 64 << 10, // scarce per-proxy memory, like production
	})
	if err != nil {
		log.Fatal(err)
	}
	c := tenant.Client()
	ctx := context.Background()

	// Product metadata: 20k items of 1KB, keyed in the generator's
	// "key-%012d" space.
	const items = 20_000
	val := make([]byte, 1024)
	for i := 0; i < items; i++ {
		if err := c.Set(ctx, key(i), val); err != nil {
			log.Fatal(err)
		}
	}

	// A promotion begins: heavily skewed reads.
	before := nodeRequests(cluster, "shop")
	gen := workload.NewZipfKeys(items, 1.4, 42)
	for op := 0; op < reads; op++ {
		if _, err := c.Get(ctx, gen.Next()); err != nil {
			log.Fatal(err)
		}
	}
	return tenant.Fleet().AggregateStats().HitRatio(), nodeRequests(cluster, "shop") - before
}

const reads = 40_000

func key(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }

func main() {
	randomHit, randomReads := run(1) // random routing: one big group
	fanoutHit, fanoutReads := run(4) // limited fan-out: 8 proxies in 4 groups

	fmt.Printf("hot-key promotion, 8 proxies, 64KB cache each, %d reads:\n", reads)
	fmt.Printf("  random routing:    proxy hit ratio %5.1f%%, reads reaching a DataNode %6d\n",
		randomHit*100, randomReads)
	fmt.Printf("  limited fan-out:   proxy hit ratio %5.1f%%, reads reaching a DataNode %6d\n",
		fanoutHit*100, fanoutReads)
	if randomReads > 0 {
		fmt.Printf("  DataNode reads saved by fan-out routing: %.0f%%\n", (1-float64(fanoutReads)/float64(randomReads))*100)
	}
}
