package cluster

import (
	"testing"
	"time"

	"dyrs/internal/sim"
)

func TestPartitionByRack(t *testing.T) {
	p := PartitionByRack(100, 4)
	if p.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5 (control + 4 data)", p.Shards())
	}
	// Node->shard must agree with ConfigureRacks' round-robin rack map:
	// rack r is homed on data shard 1+r, and no node on the control shard.
	eng := sim.NewEngine(1)
	c := New(eng, 100, nil)
	c.ConfigureRacks(4, 0)
	for i := 0; i < 100; i++ {
		id := NodeID(i)
		if got, want := p.NodeShard(id), 1+c.Rack(id); got != want {
			t.Fatalf("node %d: shard %d, want %d (rack %d)", i, got, want, c.Rack(id))
		}
	}
}

func TestMinLookahead(t *testing.T) {
	if got := MinLookahead(500*time.Microsecond, 2*time.Millisecond, 10*time.Second); got != 500*time.Microsecond {
		t.Fatalf("MinLookahead = %v", got)
	}
	if got := MinLookahead(0, 2*time.Millisecond, 0); got != 2*time.Millisecond {
		t.Fatalf("MinLookahead with zeros = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("all-zero latencies should panic")
		}
	}()
	MinLookahead(0, 0, 0)
}
