package partition

import (
	"fmt"
	"strconv"
)

// ID identifies one partition of a tenant's table.
type ID struct {
	Tenant string
	Index  int
}

// String renders the partition as tenant/index. It is on the data
// plane's per-request path (cache keys, WFQ accounting), so it avoids
// fmt.
func (id ID) String() string { return id.Tenant + "/" + strconv.Itoa(id.Index) }

// ReplicaID identifies one replica of a partition.
type ReplicaID struct {
	Partition ID
	Replica   int
}

// String renders the replica as tenant/index/replica.
func (r ReplicaID) String() string {
	return fmt.Sprintf("%s/%d", r.Partition, r.Replica)
}

// Hash returns the stable hash of a key used for partition placement
// and proxy-group fan-out: its 64-bit FNV-1a, computed inline because
// every routed request takes it.
func Hash(key []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return h
}

// PartitionOf maps a key to one of n partitions. n must be positive.
func PartitionOf(key []byte, n int) int {
	if n <= 0 {
		panic("partition: partition count must be positive")
	}
	return int(Hash(key) % uint64(n))
}

// Placement locates one replica on a DataNode.
type Placement struct {
	Replica ReplicaID
	Node    string // DataNode ID
	Primary bool
}

// Route is the routing entry for one partition: the primary first,
// then followers. Epoch increases monotonically every time the
// partition's primary changes (failover promotion); replicas remember
// the epoch they were configured under, so a write routed with a stale
// epoch — or to a demoted primary — is fenced instead of applied.
type Route struct {
	Partition ID
	Primary   string   // node hosting the primary replica
	Followers []string // nodes hosting follower replicas
	Epoch     uint64   // primary-change generation (starts at 1)
}

// Table is a tenant's full routing table: one Route per partition,
// indexed by partition index.
type Table struct {
	Tenant     string
	Partitions []Route
}

// RouteFor returns the route for the partition owning key.
func (t *Table) RouteFor(key []byte) Route {
	return t.Partitions[PartitionOf(key, len(t.Partitions))]
}

// NumPartitions returns the partition count.
func (t *Table) NumPartitions() int { return len(t.Partitions) }
