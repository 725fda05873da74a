package rescheduler

import (
	"fmt"
	"math"
	"sort"
)

// Vec24 is an hour-of-day load vector (§5.3 Load Indicator).
type Vec24 [24]float64

// Max returns the vector's maximum component.
func (v Vec24) Max() float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Add returns v + w component-wise.
func (v Vec24) Add(w Vec24) Vec24 {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v − w component-wise.
func (v Vec24) Sub(w Vec24) Vec24 {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Flat returns a vector with every component set to x.
func Flat(x float64) Vec24 {
	var v Vec24
	for i := range v {
		v[i] = x
	}
	return v
}

// Replica is one partition replica's load profile.
type Replica struct {
	// ID must be unique within the pool (e.g. "tenant/partition/replica").
	ID string
	// Tenant owns the replica (phase-1 balance and CanPlace).
	Tenant string
	// Partition identifies the partition (a node must not hold two
	// replicas of the same partition).
	Partition string
	// RU is the hour-of-day RU load vector (7-day max per hour).
	RU Vec24
	// Storage is the replica's storage footprint.
	Storage float64
	// Heat is the replica's observed access rate (ops/sec, decayed) as
	// aggregated by the MetaServer from the data plane's per-partition
	// heat meters. Zero for followers and for pools built without heat
	// telemetry, in which case scoring reduces to RU + storage.
	Heat float64

	node *Node
}

// Node returns the node currently hosting the replica.
func (r *Replica) Node() *Node { return r.node }

// Node is a DataNode's load bookkeeping.
type Node struct {
	ID string
	// RUCap and StoCap are the node's capacities.
	RUCap  float64
	StoCap float64
	// Migrating marks an in-flight migration involving this node;
	// Algorithm 2 skips such nodes.
	Migrating bool

	replicas map[string]*Replica
	ruLoad   Vec24
	stoLoad  float64
	heatLoad float64
}

// NewNode returns an empty node with the given capacities.
func NewNode(id string, ruCap, stoCap float64) *Node {
	return &Node{ID: id, RUCap: ruCap, StoCap: stoCap, replicas: make(map[string]*Replica)}
}

// RULoad returns DN^ld_ru: the max over hours of the summed replica
// vectors.
func (n *Node) RULoad() float64 { return n.ruLoad.Max() }

// StoLoad returns the summed storage footprint.
func (n *Node) StoLoad() float64 { return n.stoLoad }

// RUUtil returns RU load over capacity.
func (n *Node) RUUtil() float64 {
	if n.RUCap == 0 {
		return 0
	}
	return n.RULoad() / n.RUCap
}

// StoUtil returns storage load over capacity.
func (n *Node) StoUtil() float64 {
	if n.StoCap == 0 {
		return 0
	}
	return n.stoLoad / n.StoCap
}

// HeatLoad returns the summed replica heat (ops/sec).
func (n *Node) HeatLoad() float64 { return n.heatLoad }

// HeatUtil returns heat load normalized by the node's RU capacity —
// heat (ops/sec) and RU/s capacity share a scale, so the ratio plays
// the same role utilization does for the other dimensions.
func (n *Node) HeatUtil() float64 {
	if n.RUCap == 0 {
		return 0
	}
	return n.heatLoad / n.RUCap
}

// Replicas returns the hosted replicas (unordered).
func (n *Node) Replicas() []*Replica {
	out := make([]*Replica, 0, len(n.replicas))
	for _, r := range n.replicas {
		out = append(out, r)
	}
	return out
}

// NumReplicas returns the hosted replica count.
func (n *Node) NumReplicas() int { return len(n.replicas) }

func (n *Node) add(r *Replica) {
	n.replicas[r.ID] = r
	n.ruLoad = n.ruLoad.Add(r.RU)
	n.stoLoad += r.Storage
	n.heatLoad += r.Heat
	r.node = n
}

func (n *Node) remove(r *Replica) {
	delete(n.replicas, r.ID)
	n.ruLoad = n.ruLoad.Sub(r.RU)
	n.stoLoad -= r.Storage
	n.heatLoad -= r.Heat
	r.node = nil
}

func (n *Node) hostsPartition(partition string, except *Replica) bool {
	for _, r := range n.replicas {
		if r != except && r.Partition == partition {
			return true
		}
	}
	return false
}

// Pool is one resource pool's load model.
type Pool struct {
	nodes map[string]*Node
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{nodes: make(map[string]*Node)} }

// AddNode registers a node.
func (p *Pool) AddNode(n *Node) { p.nodes[n.ID] = n }

// RemoveNode detaches a node (inter-pool reassignment). The node must
// be empty.
func (p *Pool) RemoveNode(id string) (*Node, error) {
	n, ok := p.nodes[id]
	if !ok {
		return nil, fmt.Errorf("rescheduler: unknown node %s", id)
	}
	if len(n.replicas) > 0 {
		return nil, fmt.Errorf("rescheduler: node %s not empty", id)
	}
	delete(p.nodes, id)
	return n, nil
}

// Node returns a node by ID (nil if absent).
func (p *Pool) Node(id string) *Node { return p.nodes[id] }

// Nodes returns all nodes sorted by ID (deterministic iteration).
func (p *Pool) Nodes() []*Node {
	out := make([]*Node, 0, len(p.nodes))
	for _, n := range p.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Place puts a replica on a node.
func (p *Pool) Place(r *Replica, nodeID string) error {
	n, ok := p.nodes[nodeID]
	if !ok {
		return fmt.Errorf("rescheduler: unknown node %s", nodeID)
	}
	if r.node != nil {
		r.node.remove(r)
	}
	n.add(r)
	return nil
}

// SetReplicaRU updates a replica's RU vector in place, keeping its
// hosting node's load sums consistent (online load drift).
func (p *Pool) SetReplicaRU(r *Replica, ru Vec24) {
	if r.node != nil {
		r.node.ruLoad = r.node.ruLoad.Sub(r.RU)
		r.node.ruLoad = r.node.ruLoad.Add(ru)
	}
	r.RU = ru
}

// SetReplicaHeat updates a replica's heat in place, keeping its node's
// heat sum consistent (online telemetry refresh between passes).
func (p *Pool) SetReplicaHeat(r *Replica, heat float64) {
	if r.node != nil {
		r.node.heatLoad += heat - r.Heat
	}
	r.Heat = heat
}

// OptimalLoad returns ⟨R,S⟩: pool RU load over pool RU capacity, and
// pool storage load over pool storage capacity.
func (p *Pool) OptimalLoad() (R, S float64) {
	var ruLoad Vec24
	var sto, ruCap, stoCap float64
	for _, n := range p.nodes {
		ruLoad = ruLoad.Add(n.ruLoad)
		sto += n.stoLoad
		ruCap += n.RUCap
		stoCap += n.StoCap
	}
	if ruCap > 0 {
		R = ruLoad.Max() / ruCap
	}
	if stoCap > 0 {
		S = sto / stoCap
	}
	return R, S
}

// OptimalHeat returns the pool's balanced heat utilization: total heat
// over total RU capacity (the per-node target for HeatUtil).
func (p *Pool) OptimalHeat() float64 {
	var heat, ruCap float64
	for _, n := range p.nodes {
		heat += n.heatLoad
		ruCap += n.RUCap
	}
	if ruCap <= 0 {
		return 0
	}
	return heat / ruCap
}

// Loss is the L2-norm deviation of a node's utilization from the
// optimal load ⟨R,S,H⟩ (§5.3 Migration Gain, extended with the heat
// dimension). Pools without heat telemetry have H and every HeatUtil
// at zero, reducing Loss to the paper's two-dimensional form.
func Loss(n *Node, R, S, H float64) float64 {
	dr := n.RUUtil() - R
	ds := n.StoUtil() - S
	dh := n.HeatUtil() - H
	return math.Sqrt(dr*dr + ds*ds + dh*dh)
}

// Gain quantifies migrating replica re to dst: the reduction of the
// max loss across the source and destination nodes (§5.3).
func Gain(re *Replica, dst *Node, R, S, H float64) float64 {
	src := re.node
	if src == nil || src == dst {
		return 0
	}
	before := math.Max(Loss(src, R, S, H), Loss(dst, R, S, H))
	// Simulate the move.
	src.remove(re)
	dst.add(re)
	after := math.Max(Loss(src, R, S, H), Loss(dst, R, S, H))
	// Revert.
	dst.remove(re)
	src.add(re)
	return before - after
}

// Resource selects the balancing dimension.
type Resource int

// Balancing dimensions.
const (
	RU Resource = iota
	Storage
	// Heat balances observed partition access rates, so a node packed
	// with hot partitions sheds them even when its RU accounting and
	// storage look even.
	Heat
)

// MinHeatForRebalance is the per-node average heat (ops/sec) below
// which the Heat dimension considers the pool balanced: migrations are
// physical data moves and must not be triggered by a handful of reads
// on an otherwise idle cluster.
const MinHeatForRebalance = 1.0

// String names the resource.
func (r Resource) String() string {
	switch r {
	case Storage:
		return "Storage"
	case Heat:
		return "Heat"
	default:
		return "RU"
	}
}

func (n *Node) util(res Resource) float64 {
	switch res {
	case Storage:
		return n.StoUtil()
	case Heat:
		return n.HeatUtil()
	default:
		return n.RUUtil()
	}
}

// Division splits the pool's nodes into low/medium/high load groups
// around the optimal load with threshold θ (§5.3 DataNode Division).
func (p *Pool) Division(res Resource, theta float64) (low, medium, high []*Node) {
	R, S := p.OptimalLoad()
	target := R
	switch res {
	case Storage:
		target = S
	case Heat:
		// Dead-band: physical replica moves must not chase noise-level
		// heat. A pool averaging under MinHeatForRebalance ops/s per
		// node is balanced by definition for this dimension.
		var total float64
		for _, n := range p.nodes {
			total += n.heatLoad
		}
		if total < MinHeatForRebalance*float64(len(p.nodes)) {
			return nil, p.Nodes(), nil
		}
		target = p.OptimalHeat()
	}
	for _, n := range p.Nodes() {
		u := n.util(res)
		switch {
		case u <= target-theta:
			low = append(low, n)
		case u <= target:
			medium = append(medium, n)
		default:
			high = append(high, n)
		}
	}
	return low, medium, high
}
