package dfs

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func TestHeartbeatStaleViewAndFailover(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 60)
	fs.EnableHeartbeats()
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	victim := fs.Replicas(b)[0]

	offered := func() bool {
		for _, r := range fs.Replicas(b) {
			if r == victim {
				return true
			}
		}
		return false
	}

	// Heartbeats land every 3 s, so the victim's last one is at 9 s.
	eng.RunUntil(sim.Time(10 * time.Second))
	cl.KillNode(victim)

	// Immediately after the crash the NameNode still offers the victim.
	if !offered() {
		t.Fatal("stale view dropped the dead node instantly")
	}

	// A read placed at the dead node fails over to a live replica and
	// still completes, paying the connect timeout (§III-C2).
	var res ReadResult
	if err := fs.ReadBlock(victim, b, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}

	// The stale window is three missed beats plus the beat in flight:
	// 12 s after the last heartbeat, the NameNode marks the node dead
	// and stops offering it.
	eng.RunUntil(sim.Time(20900 * time.Millisecond))
	if !offered() {
		t.Fatal("victim dropped before the missed-beat window elapsed")
	}
	eng.RunUntil(sim.Time(21100 * time.Millisecond))
	if offered() {
		t.Fatal("dead node still offered after missed heartbeats")
	}

	eng.RunUntil(sim.Time(2 * time.Minute))
	if res.Failed {
		t.Fatal("read failed despite live replicas")
	}
	if res.Server == victim {
		t.Errorf("read served by the dead node %v", res.Server)
	}
	if fs.FailedOvers() == 0 {
		t.Error("no failover counted")
	}
	// The read paid at least the connect timeout on top of the ~2s read.
	if d := res.Duration().Seconds(); d < 2.5 {
		t.Errorf("failover read took only %.1fs; connect timeout not charged", d)
	}
}

func TestHeartbeatMemReplicaFailover(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 61)
	fs.EnableHeartbeats()
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	memNode := fs.Replicas(b)[0]
	fs.RegisterMem(b, memNode)
	eng.RunUntil(sim.Time(5 * time.Second))
	cl.KillNode(memNode)

	// A read right after the crash is directed to the (stale) memory
	// replica, times out, and fails over to a disk replica.
	reader := (memNode + 1) % 5
	var res ReadResult
	if err := fs.ReadBlock(reader, b, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * time.Minute))
	if res.Failed {
		t.Fatal("read failed despite live disk replicas")
	}
	if res.Source.FromMemory() {
		t.Errorf("read claims memory source from a dead node: %v", res.Source)
	}
}

func TestAllReplicasDeadMidFailover(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine(62)
	cl := cluster.New(eng, 2, nil)
	cfg := DefaultConfig()
	cfg.Replication = 2
	fs := New(cl, cfg)
	fs.EnableHeartbeats()
	f, _ := fs.CreateFile("in", 256*sim.MB)
	eng.RunUntil(sim.Time(5 * time.Second))
	cl.KillNode(0)
	cl.KillNode(1)
	var res ReadResult
	got := false
	// Stale view still offers replicas, so the call succeeds
	// synchronously; the failure surfaces asynchronously.
	if err := fs.ReadBlock(0, f.Blocks[0], func(r ReadResult) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * time.Minute))
	if !got || !res.Failed {
		t.Errorf("expected asynchronous failure, got %+v (delivered=%v)", res, got)
	}
}

// TestLivenessBlipShorterThanInterval: a node that dies and revives
// between two heartbeats is never marked dead — the NameNode's view
// glitches by at most one connect timeout per read during the blip, and
// the node serves again after reviving.
func TestLivenessBlipShorterThanInterval(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 72)
	fs.EnableHeartbeats()
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	victim := fs.Replicas(b)[0]
	// A memory replica pins reads to the victim, so the blip is actually
	// exercised rather than routed around.
	fs.RegisterMem(b, victim)

	offered := func() bool {
		for _, r := range fs.Replicas(b) {
			if r == victim {
				return true
			}
		}
		return false
	}

	// Down from 12.5s to 14.5s: strictly inside the 12s..15s tick gap.
	eng.RunUntil(sim.Time(12500 * time.Millisecond))
	cl.KillNode(victim)
	var during ReadResult
	if err := fs.ReadBlock((victim+1)%5, b, func(r ReadResult) { during = r }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(14500 * time.Millisecond))
	cl.ReviveNode(victim)

	if !offered() {
		t.Fatal("victim dropped although no heartbeat was ever missed")
	}
	eng.RunUntil(sim.Time(60 * time.Second))
	if during.Failed {
		t.Fatal("read during the blip failed")
	}
	if during.Server == victim {
		t.Error("read during the blip served by the down node")
	}
	if fs.FailedOvers() == 0 {
		t.Error("blip read did not fail over")
	}
	if !offered() {
		t.Fatal("victim not offered after reviving")
	}
	// After revival the memory replica serves again.
	var after ReadResult
	if err := fs.ReadBlock((victim+1)%5, b, func(r ReadResult) { after = r }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * time.Minute))
	if after.Failed || !after.Source.FromMemory() {
		t.Errorf("post-blip read not served from memory: %+v", after)
	}
}
