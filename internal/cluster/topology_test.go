package cluster

import (
	"testing"

	"dyrs/internal/sim"
)

func TestFlatClusterDefaults(t *testing.T) {
	c := New(sim.NewEngine(1), 4, nil)
	if c.Racks() != 1 {
		t.Errorf("flat cluster racks = %d", c.Racks())
	}
	if !c.SameRack(0, 3) || c.Rack(2) != 0 {
		t.Error("flat cluster rack queries wrong")
	}
	if c.Core() != nil {
		t.Error("flat cluster has a core")
	}
	var nilTopo *Topology
	if nilTopo.String() != "flat" {
		t.Errorf("nil topology string %q", nilTopo.String())
	}
}

func TestConfigureRacks(t *testing.T) {
	c := New(sim.NewEngine(1), 6, nil)
	c.ConfigureRacks(2, 2*float64(sim.GB))
	if c.Racks() != 2 {
		t.Fatalf("racks = %d", c.Racks())
	}
	// Round-robin assignment: even nodes rack 0, odd nodes rack 1.
	if c.Rack(0) != 0 || c.Rack(1) != 1 || c.Rack(4) != 0 {
		t.Errorf("rack assignment wrong: %d %d %d", c.Rack(0), c.Rack(1), c.Rack(4))
	}
	if c.SameRack(0, 1) || !c.SameRack(0, 2) {
		t.Error("SameRack wrong")
	}
	if c.Core() == nil || c.Core().Capacity() != 2*float64(sim.GB) {
		t.Error("core not installed")
	}
	r0 := c.RackNodes(0)
	if len(r0) != 3 {
		t.Errorf("rack 0 has %d nodes", len(r0))
	}
}

func TestConfigureRacksNonBlocking(t *testing.T) {
	c := New(sim.NewEngine(1), 4, nil)
	c.ConfigureRacks(2, 0)
	if c.Core() != nil {
		t.Error("zero core bandwidth should mean non-blocking (nil core)")
	}
	if got := c.topo.String(); got != "2 racks, non-blocking core" {
		t.Errorf("topology string %q", got)
	}
}

func TestConfigureRacksValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero racks did not panic")
		}
	}()
	New(sim.NewEngine(1), 4, nil).ConfigureRacks(0, 0)
}
