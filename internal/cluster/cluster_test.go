package cluster

import (
	"testing"
	"time"

	"dyrs/internal/sim"
)

func TestNewClusterDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 4, nil)
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	n := c.Node(2)
	if n.ID != 2 || !n.Alive() {
		t.Errorf("node 2 wrong: %+v", n.ID)
	}
	if n.Disk.Capacity() != 130*float64(sim.MB) {
		t.Errorf("disk capacity = %v", n.Disk.Capacity())
	}
	if len(c.Nodes()) != 4 {
		t.Errorf("Nodes() len = %d", len(c.Nodes()))
	}
	if c.Engine() != eng {
		t.Error("engine accessor wrong")
	}
}

func TestPerNodeConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 3, func(i int) NodeConfig {
		cfg := DefaultNodeConfig()
		if i == 1 {
			cfg.DiskScale = 0.25
		}
		return cfg
	})
	if s := c.Node(1).Disk.Scale(); s != 0.25 {
		t.Errorf("slow node scale = %v", s)
	}
	if s := c.Node(0).Disk.Scale(); s != 1 {
		t.Errorf("normal node scale = %v", s)
	}
}

func TestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-node cluster did not panic")
		}
	}()
	New(sim.NewEngine(1), 0, nil)
}

func TestKillRevive(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 3, nil)
	c.KillNode(1)
	alive := c.AliveNodes()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 2 {
		t.Errorf("alive = %v", alive)
	}
	c.ReviveNode(1)
	if len(c.AliveNodes()) != 3 {
		t.Error("revive failed")
	}
}

func TestRPCLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 1, nil)
	var at sim.Time
	c.RPC(func() { at = eng.Now() })
	eng.Run()
	if at != sim.Time(RPCLatency) {
		t.Errorf("rpc fired at %v, want %v", at, RPCLatency)
	}
}

func TestInterferenceHalvesThroughput(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 1, func(int) NodeConfig {
		cfg := DefaultNodeConfig()
		cfg.DiskBandwidth = 100 * float64(sim.MB)
		cfg.DiskSeekPenalty = 0 // isolate sharing from seek loss
		return cfg
	})
	n := c.Node(0)
	inf := n.StartInterference(1, 1)
	var done sim.Time
	n.Disk.Start(100*sim.MB, func(*sim.Flow) { done = eng.Now() })
	eng.Run()
	if got := done.Seconds(); got < 1.99 || got > 2.01 {
		t.Errorf("read with 1 interference stream took %vs, want ~2s", got)
	}
	inf.Stop()
	if n.Disk.ActiveFlows() != 0 {
		t.Errorf("flows remain: %d", n.Disk.ActiveFlows())
	}
}

func TestInterferencePauseResume(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 1, func(int) NodeConfig {
		cfg := DefaultNodeConfig()
		cfg.DiskSeekPenalty = 0
		return cfg
	})
	n := c.Node(0)
	inf := n.StartInterference(2, 1)
	if !inf.Active() || n.Disk.ActiveFlows() != 2 {
		t.Fatal("interference not started")
	}
	inf.Pause()
	inf.Pause() // idempotent
	if inf.Active() || n.Disk.ActiveFlows() != 0 {
		t.Fatal("pause failed")
	}
	inf.Resume()
	inf.Resume() // idempotent
	if !inf.Active() || n.Disk.ActiveFlows() != 2 {
		t.Fatal("resume failed")
	}
	inf.Stop()
}

func TestAlternatingPattern(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 1, nil)
	n := c.Node(0)
	p := StartAlternating(eng, n, 2, 1, 10*time.Second, true)
	if !p.inf.Active() {
		t.Fatal("should start active")
	}
	eng.RunUntil(sim.Time(11 * time.Second))
	if p.inf.Active() {
		t.Error("should be paused after first toggle")
	}
	eng.RunUntil(sim.Time(21 * time.Second))
	if !p.inf.Active() {
		t.Error("should be active after second toggle")
	}
	p.Stop()
	if p.inf.Active() || n.Disk.ActiveFlows() != 0 {
		t.Error("stop did not clean up")
	}
	eng.RunFor(time.Minute)
	if p.inf.Active() {
		t.Error("pattern kept toggling after Stop")
	}
}

func TestAlternatingAntiPhase(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, 2, nil)
	a := StartAlternating(eng, c.Node(0), 2, 1, 10*time.Second, true)
	b := StartAlternating(eng, c.Node(1), 2, 1, 10*time.Second, false)
	check := func(wantA, wantB bool) {
		if a.inf.Active() != wantA || b.inf.Active() != wantB {
			t.Errorf("at %v: active = %v/%v, want %v/%v", eng.Now(),
				a.inf.Active(), b.inf.Active(), wantA, wantB)
		}
	}
	check(true, false)
	eng.RunUntil(sim.Time(15 * time.Second))
	check(false, true)
	eng.RunUntil(sim.Time(25 * time.Second))
	check(true, false)
	a.Stop()
	b.Stop()
}

func TestNodeIDString(t *testing.T) {
	if NodeID(3).String() != "node3" {
		t.Errorf("NodeID.String = %q", NodeID(3).String())
	}
}
