// Package hotspot implements online heavy-hitter detection for skewed
// traffic: a windowed Space-Saving top-k summary backed by a decayed
// count-min estimator (Detector), and an exponentially decayed rate
// meter (Meter) for per-partition heat.
//
// DataNodes run one Detector and one Meter per hosted replica to answer
// "which keys are hot?" and "how hot is this partition?"; proxies run a
// Sharded detector per instance, split by key hash like their AU-LRU,
// to gate AU-LRU admission — free room on a touch's estimate, eviction
// only for a key whose estimate beats its victim's — so cold keys
// cannot push hot ones out of scarce proxy cache memory; and the
// MetaServer aggregates partition heat to drive heat-aware
// rescheduling and automatic partition splits.
package hotspot
