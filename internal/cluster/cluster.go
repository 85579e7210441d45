// Package cluster models the physical substrate of the simulated
// data-center: nodes composed of a disk, a NIC, memory, and task slots,
// plus the disk-interference generators the paper uses to create
// bandwidth heterogeneity (persistent dd-style load and alternating
// on/off patterns, §V-C).
package cluster

import (
	"fmt"

	"dyrs/internal/sim"
)

// NodeID identifies a node within a cluster. IDs are dense, starting at 0.
type NodeID int

// String formats the id as "node<N>".
func (id NodeID) String() string { return fmt.Sprintf("node%d", id) }

// NodeConfig describes one node's hardware.
type NodeConfig struct {
	// DiskBandwidth is the nominal sequential disk throughput in
	// bytes/sec (the paper's servers have one 1 TB HDD each).
	DiskBandwidth float64
	// DiskSeekPenalty is the per-extra-stream efficiency loss applied by
	// sim.SeekEfficiency; models seek overhead under concurrent reads.
	DiskSeekPenalty float64
	// NetBandwidth is the NIC throughput in bytes/sec (10 Gbps in the
	// paper's testbed).
	NetBandwidth float64
	// MemBandwidth is the throughput of reads served from the in-memory
	// buffer, in bytes/sec.
	MemBandwidth float64
	// MemCapacity is the buffer space available for migrated blocks.
	MemCapacity sim.Bytes
	// TaskSlots is the number of concurrent task containers the node's
	// compute manager offers.
	TaskSlots int
	// DiskScale < 1 models permanently slower hardware (fixed
	// heterogeneity), applied on top of DiskBandwidth.
	DiskScale float64
}

// DefaultNodeConfig mirrors the paper's testbed: ~130 MB/s HDD, 10 Gbps
// network, 128 GB RAM (half of it available for migration buffers), and
// 12 hyperthreads driving the slot count.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		DiskBandwidth:   130 * float64(sim.MB),
		DiskSeekPenalty: 0.05,
		NetBandwidth:    1250 * float64(sim.MB), // 10 Gbps
		MemBandwidth:    6 * float64(sim.GB),
		MemCapacity:     64 * sim.GB,
		TaskSlots:       8,
		DiskScale:       1,
	}
}

// Node is one simulated server.
type Node struct {
	ID   NodeID
	Cfg  NodeConfig
	Disk *sim.Resource
	NIC  *sim.Resource
	Mem  *sim.Resource

	eng   *sim.Engine
	alive bool
}

// Alive reports whether the server is up.
func (n *Node) Alive() bool { return n.alive }

// Cluster owns the engine and the node set.
type Cluster struct {
	eng      *sim.Engine
	nodes    []*Node
	topo     *Topology
	flatRack []NodeID // lazily built member list for the flat (1-rack) case
	// membershipEpoch counts kill/revive transitions; see MembershipEpoch.
	membershipEpoch uint64
}

// RPCLatency is the one-way latency of control-plane messages
// (heartbeats, migration commands). Data transfers are modeled on
// resources; control traffic only pays this latency.
const RPCLatency = 500 * sim.Duration(1e3) // 0.5ms

// New creates a cluster of n nodes with per-node configs produced by
// cfg(i). Pass nil to use DefaultNodeConfig for every node.
func New(eng *sim.Engine, n int, cfg func(i int) NodeConfig) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one node")
	}
	c := &Cluster{eng: eng}
	for i := 0; i < n; i++ {
		nc := DefaultNodeConfig()
		if cfg != nil {
			nc = cfg(i)
		}
		if nc.DiskScale == 0 {
			nc.DiskScale = 1
		}
		node := &Node{
			ID:    NodeID(i),
			Cfg:   nc,
			Disk:  sim.NewResource(eng, fmt.Sprintf("disk:node%d", i), nc.DiskBandwidth, sim.SeekEfficiency(nc.DiskSeekPenalty)),
			NIC:   sim.NewResource(eng, fmt.Sprintf("nic:node%d", i), nc.NetBandwidth, nil),
			Mem:   sim.NewResource(eng, fmt.Sprintf("mem:node%d", i), nc.MemBandwidth, nil),
			eng:   eng,
			alive: true,
		}
		if nc.DiskScale != 1 {
			node.Disk.SetScale(nc.DiskScale)
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

// Engine returns the cluster's simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Size reports the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the node with the given id.
func (c *Cluster) Node(id NodeID) *Node {
	return c.nodes[int(id)]
}

// Nodes returns all nodes in id order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// AliveNodes returns the ids of nodes currently up, in id order.
func (c *Cluster) AliveNodes() []NodeID {
	var ids []NodeID
	for _, n := range c.nodes {
		if n.alive {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// KillNode marks a server down. Its resources stop being usable by model
// code that checks liveness; in-flight flows are cancelled.
func (c *Cluster) KillNode(id NodeID) {
	c.nodes[int(id)].alive = false
	c.membershipEpoch++
}

// ReviveNode brings a server back up.
func (c *Cluster) ReviveNode(id NodeID) {
	c.nodes[int(id)].alive = true
	c.membershipEpoch++
}

// MembershipEpoch increments whenever a node is killed or revived.
// Components that cache derived views of cluster liveness (e.g. the
// DYRS binder's per-node finish table) compare epochs to skip rebuilds
// when nothing changed.
func (c *Cluster) MembershipEpoch() uint64 { return c.membershipEpoch }

// RPC schedules fn after the control-plane latency, simulating a
// master<->slave message.
func (c *Cluster) RPC(fn func()) {
	c.eng.Schedule(RPCLatency, fn)
}

// Interference is a handle on background disk load occupying a node.
type Interference struct {
	node    *Node
	flows   []*sim.Flow
	streams int
	weight  float64
	active  bool
}

// StartInterference launches `streams` persistent competing read streams
// (each with the given fair-share weight) on the node's disk — the
// simulation equivalent of the paper's two dd O_DIRECT readers.
func (n *Node) StartInterference(streams int, weight float64) *Interference {
	inf := &Interference{node: n, streams: streams, weight: weight}
	inf.Resume()
	return inf
}

// Active reports whether the interference streams are currently running.
func (inf *Interference) Active() bool { return inf.active }

// Pause removes the competing streams (interference "inactive" phase).
func (inf *Interference) Pause() {
	if !inf.active {
		return
	}
	for _, f := range inf.flows {
		f.Cancel()
	}
	inf.flows = nil
	inf.active = false
}

// Resume restores the competing streams.
func (inf *Interference) Resume() {
	if inf.active {
		return
	}
	for i := 0; i < inf.streams; i++ {
		inf.flows = append(inf.flows, inf.node.Disk.StartLoad(inf.weight))
	}
	inf.active = true
}

// Stop permanently removes the interference.
func (inf *Interference) Stop() { inf.Pause() }

// AlternatingPattern toggles interference on/off with the given period —
// the paper's "alternates every 10s / 20s" patterns (Fig. 9b-9e). When
// startActive is false, the pattern begins in the off phase (used for the
// anti-phased two-node patterns in Fig. 9d/9e).
type AlternatingPattern struct {
	inf    *Interference
	ticker *sim.Ticker
}

// StartAlternating creates interference on n that flips state every
// period.
func StartAlternating(eng *sim.Engine, n *Node, streams int, weight float64, period sim.Duration, startActive bool) *AlternatingPattern {
	inf := n.StartInterference(streams, weight)
	if !startActive {
		inf.Pause()
	}
	p := &AlternatingPattern{inf: inf}
	p.ticker = sim.NewTicker(eng, period, func() {
		if inf.Active() {
			inf.Pause()
		} else {
			inf.Resume()
		}
	})
	return p
}

// Stop halts the pattern and removes any active interference.
func (p *AlternatingPattern) Stop() {
	p.ticker.Stop()
	p.inf.Stop()
}

// Interference reports the underlying interference handle (for tests).
func (p *AlternatingPattern) Interference() *Interference { return p.inf }
