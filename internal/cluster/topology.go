package cluster

import (
	"fmt"

	"dyrs/internal/sim"
)

// Topology assigns nodes to racks and models the cross-rack core switch.
// By default a cluster is flat: one rack, non-blocking network. Calling
// ConfigureRacks splits it into racks connected by a shared (typically
// oversubscribed) core, which cross-rack transfers must traverse.
type Topology struct {
	rackOf    []int
	rackNodes [][]NodeID // cached member lists, indexed by rack
	racks     int
	core      *sim.Resource
}

// ConfigureRacks partitions the cluster's nodes round-robin into the
// given number of racks and installs a core switch with the given
// aggregate cross-rack bandwidth in bytes/sec (0 = non-blocking core).
func (c *Cluster) ConfigureRacks(racks int, coreBandwidth float64) {
	if racks <= 0 {
		panic("cluster: need at least one rack")
	}
	t := &Topology{racks: racks, rackOf: make([]int, len(c.nodes)), rackNodes: make([][]NodeID, racks)}
	for i := range c.nodes {
		r := i % racks
		t.rackOf[i] = r
		t.rackNodes[r] = append(t.rackNodes[r], NodeID(i))
	}
	if coreBandwidth > 0 {
		t.core = sim.NewResource(c.eng, "core-switch", coreBandwidth, nil)
	}
	c.topo = t
}

// Racks reports the number of racks (1 for a flat cluster).
func (c *Cluster) Racks() int {
	if c.topo == nil {
		return 1
	}
	return c.topo.racks
}

// Rack reports the rack a node lives in.
func (c *Cluster) Rack(id NodeID) int {
	if c.topo == nil {
		return 0
	}
	return c.topo.rackOf[int(id)]
}

// SameRack reports whether two nodes share a rack.
func (c *Cluster) SameRack(a, b NodeID) bool {
	return c.Rack(a) == c.Rack(b)
}

// Core returns the core-switch resource, or nil when the core is
// non-blocking (flat cluster or coreBandwidth 0).
func (c *Cluster) Core() *sim.Resource {
	if c.topo == nil {
		return nil
	}
	return c.topo.core
}

// RackNodes returns the cached member list of the given rack. For a
// flat cluster, rack 0 holds every node (the list is built lazily and
// cached). Callers must not mutate the returned slice.
func (c *Cluster) RackNodes(rack int) []NodeID {
	if c.topo == nil {
		if rack != 0 {
			return nil
		}
		if c.flatRack == nil {
			c.flatRack = make([]NodeID, len(c.nodes))
			for i := range c.nodes {
				c.flatRack[i] = NodeID(i)
			}
		}
		return c.flatRack
	}
	if rack < 0 || rack >= c.topo.racks {
		return nil
	}
	return c.topo.rackNodes[rack]
}

// String describes the topology.
func (t *Topology) String() string {
	if t == nil {
		return "flat"
	}
	core := "non-blocking core"
	if t.core != nil {
		core = fmt.Sprintf("core %s/s", sim.FormatBytes(sim.Bytes(t.core.Capacity())))
	}
	return fmt.Sprintf("%d racks, %s", t.racks, core)
}
