package cluster

import (
	"dyrs/internal/sim"
)

// Partition maps a cluster onto the logical shards of a
// sim.ShardedEngine: shard 0 is the control shard (master, namenode,
// coordinator — everything that must observe global state), and each
// rack's nodes are homed on a data shard of their own. A shard owns the
// event queue, Resources, and DataNode state of its partition;
// everything that crosses a partition edge (heartbeat reports,
// migration commands, cross-rack flows) must travel as a sim Send with
// at least the MinLookahead of delay.
type Partition struct {
	shards  int
	shardOf []int // node index -> shard
}

// PartitionByRack builds the canonical rack partition: shard 0 for the
// control plane, then one data shard per rack, so rack r is homed on
// shard 1+r and the engine needs 1+racks shards.
func PartitionByRack(nodes, racks int) *Partition {
	if racks < 1 {
		panic("cluster: partition needs at least one rack")
	}
	p := &Partition{shards: 1 + racks, shardOf: make([]int, nodes)}
	// Mirror ConfigureRacks' round-robin node->rack assignment.
	for i := 0; i < nodes; i++ {
		p.shardOf[i] = 1 + i%racks
	}
	return p
}

// Shards reports the total logical shard count (control shard + data
// shards) — the value to pass to sim.NewShardedEngine.
func (p *Partition) Shards() int { return p.shards }

// NodeShard reports the shard a node is homed on.
func (p *Partition) NodeShard(id NodeID) int { return p.shardOf[int(id)] }

// MinLookahead derives a safe conservative-synchronization lookahead
// from the model's cross-partition latencies: every interaction that
// crosses a partition edge is at least as slow as the fastest of the
// control-plane RPC turnaround, the network propagation delay, and the
// heartbeat interval — so the smallest positive one bounds how far a
// shard may run ahead of its neighbors without missing an incoming
// message. Zero values mean "that channel doesn't exist in this
// model"; at least one latency must be positive.
func MinLookahead(rpcLatency, linkDelay, heartbeat sim.Duration) sim.Duration {
	min := sim.Duration(0)
	for _, d := range []sim.Duration{rpcLatency, linkDelay, heartbeat} {
		if d <= 0 {
			continue
		}
		if min == 0 || d < min {
			min = d
		}
	}
	if min == 0 {
		panic("cluster: no positive cross-partition latency to derive lookahead from")
	}
	return min
}
