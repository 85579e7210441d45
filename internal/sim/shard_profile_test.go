package sim

import (
	"testing"
	"time"
)

// profileModel drives a small two-shard ping-pong with an extra idle
// third shard whose sparse events force lookahead stalls.
func profileModel(workers int) ShardProfile {
	se := NewShardedEngine(1, 3, time.Second)
	se.SetWorkers(workers)
	a, b, c := se.Shard(0), se.Shard(1), se.Shard(2)

	n := 0
	var ping func()
	ping = func() {
		n++
		if n >= 40 {
			return
		}
		src, dst := a, 1
		if n%2 == 1 {
			src, dst = b, 0
		}
		src.Send(dst, time.Second, ping)
	}
	a.Schedule(time.Millisecond, ping)
	// Shard 2 has work far apart: it is busy in the census but its next
	// event usually lies beyond the window cap — a lookahead stall.
	for i := 1; i <= 5; i++ {
		c.Schedule(time.Duration(i)*10*time.Second, func() {})
	}
	se.Run()
	return se.Profile()
}

func TestShardProfileAccounting(t *testing.T) {
	p := profileModel(1)
	if p.Rounds == 0 {
		t.Fatal("no coordinated rounds profiled")
	}
	if p.Delivered != 39 {
		t.Errorf("delivered = %d, want 39 ping-pong messages", p.Delivered)
	}
	if p.Sends[0][1]+p.Sends[1][0] != 39 {
		t.Errorf("edge sends 0->1 %d + 1->0 %d, want total 39", p.Sends[0][1], p.Sends[1][0])
	}
	if p.Sends[0][1] == 0 || p.Sends[1][0] == 0 {
		t.Error("one ping-pong direction recorded no sends")
	}
	if p.Stalled[2] == 0 {
		t.Error("sparse shard recorded no lookahead stalls")
	}
	var exec uint64
	for _, e := range p.Executed {
		exec += e
	}
	if exec+p.SoloExecuted == 0 {
		t.Error("profile recorded no executed events")
	}
	var windows, stalled uint64
	for i := range p.Windows {
		windows, stalled = windows+p.Windows[i], stalled+p.Stalled[i]
	}
	if stalled == 0 || stalled >= windows {
		t.Errorf("%d of %d shard windows stalled, want some but not all", stalled, windows)
	}
}

// The profile is a pure function of virtual-time state: every field
// must be identical at any worker count.
func TestShardProfileWorkerInvariant(t *testing.T) {
	ref := profileModel(1)
	for _, workers := range []int{2, 3} {
		p := profileModel(workers)
		if p.Rounds != ref.Rounds || p.SoloRounds != ref.SoloRounds ||
			p.SoloExecuted != ref.SoloExecuted || p.Delivered != ref.Delivered {
			t.Errorf("workers=%d: scalar profile differs: %+v vs %+v", workers, p, ref)
		}
		for i := range ref.Windows {
			if p.Windows[i] != ref.Windows[i] || p.Stalled[i] != ref.Stalled[i] || p.Executed[i] != ref.Executed[i] {
				t.Errorf("workers=%d shard %d: windows/stalls/executed %d/%d/%d vs %d/%d/%d",
					workers, i, p.Windows[i], p.Stalled[i], p.Executed[i],
					ref.Windows[i], ref.Stalled[i], ref.Executed[i])
			}
		}
		for i := range ref.Sends {
			for j := range ref.Sends[i] {
				if p.Sends[i][j] != ref.Sends[i][j] {
					t.Errorf("workers=%d: sends[%d][%d] = %d, want %d", workers, i, j, p.Sends[i][j], ref.Sends[i][j])
				}
			}
		}
	}
}

// A model pinned to one shard runs every round on the solo fast path
// and never runs a coordinated window.
func TestShardProfileSoloRate(t *testing.T) {
	se := NewShardedEngine(1, 4, time.Second)
	for i := 0; i < 10; i++ {
		se.Shard(0).Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	se.Run()
	p := se.Profile()
	if p.Rounds != 0 || p.SoloRounds == 0 {
		t.Errorf("pinned model: rounds %d solo %d, want 0 and >0", p.Rounds, p.SoloRounds)
	}
	if p.SoloExecuted != 10 {
		t.Errorf("solo executed = %d, want 10", p.SoloExecuted)
	}
}
