// Quickstart: start an embedded ABase cluster, provision a tenant, and
// issue basic key-value and hash operations through the client API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"abase"
)

func main() {
	// A 3-node cluster with 3-way replication, entirely in-process.
	cluster, err := abase.NewCluster(abase.ClusterConfig{Nodes: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// A tenant with a 10k RU/s quota, 4 partitions, 2 proxies.
	tenant, err := cluster.CreateTenant(abase.TenantSpec{
		Name:       "myapp",
		QuotaRU:    10_000,
		Partitions: 4,
		Proxies:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := tenant.Client()
	ctx := context.Background()

	// Strings.
	if err := c.Set(ctx, []byte("greeting"), []byte("hello, abase")); err != nil {
		log.Fatal(err)
	}
	v, err := c.Get(ctx, []byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %s\n", v)

	// Hashes.
	c.HSet(ctx, []byte("user:1"), "name", []byte("ada"))
	c.HSet(ctx, []byte("user:1"), "lang", []byte("go"))
	n, _ := c.HLen(ctx, []byte("user:1"))
	all, _ := c.HGetAll(ctx, []byte("user:1"))
	fmt.Printf("user:1 has %d fields: ", n)
	for f, v := range all {
		fmt.Printf("%s=%s ", f, v)
	}
	fmt.Println()

	// Batch operations.
	c.MSetPairs(ctx, []abase.KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}})
	vs, _ := c.MGet(ctx, []byte("a"), []byte("missing"), []byte("b"))
	fmt.Printf("mget: a=%s missing=%v b=%s\n", vs[0], vs[1], vs[2])

	// Delete.
	c.Delete(ctx, []byte("greeting"))
	if _, err := c.Get(ctx, []byte("greeting")); errors.Is(err, abase.ErrNotFound) {
		fmt.Println("greeting deleted")
	}
}
