// Package cache implements ABase's two cache strategies (§4.4):
//
//   - SA-LRU (Size-Aware LRU), the DataNode-layer cache. Entries are
//     grouped into size classes, each with its own queue; eviction
//     removes from the class with the fewest hits per byte, so large
//     cold items are evicted before small hot ones.
//   - AU-LRU (Active-Update LRU), the proxy-layer cache. Entries carry
//     a TTL; an entry hit twice inside the window before its expiry is
//     renewed from the origin instead of expiring, preventing request
//     spikes from expired hot keys. The renewal runs synchronously on
//     the request whose hit triggers it, which is served the value it
//     found.
//
// Both split into Shards(capacity) shards by a seeded hash of the key,
// each with its own lock and an equal share of the capacity, so callers
// on different cores that touch different keys do not queue on one
// mutex; a cache under 2 MiB is one shard. Every shard of either cache
// indexes its keys in one kind of open-addressed table (index) whose
// slots hold what a hit reads.
//
// Every queue evicts by CLOCK, the LRU approximation page caches use
// (see clockList): a hit sets the entry's visited bit and moves nothing,
// so callers on different cores that hit the same keys do not trade
// the entries' cache lines.
package cache
