package dfs

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func newRackedFS(t *testing.T, nodes, racks int, coreBW float64, seed int64) (*sim.Engine, *cluster.Cluster, *FS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, nodes, nil)
	cl.ConfigureRacks(racks, coreBW)
	return eng, cl, New(cl, DefaultConfig())
}

func TestRackAwarePlacement(t *testing.T) {
	t.Parallel()
	_, cl, fs := newRackedFS(t, 8, 2, 0, 1)
	if _, err := fs.CreateFile("big", 40*256*sim.MB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fs.NumBlocks(); i++ {
		reps := fs.Replicas(BlockID(i))
		if len(reps) != 3 {
			t.Fatalf("block %d has %d replicas", i, len(reps))
		}
		// HDFS default: replicas span exactly two racks, with the second
		// and third replica sharing a rack distinct from the first's.
		r0 := cl.Rack(reps[0])
		r1 := cl.Rack(reps[1])
		r2 := cl.Rack(reps[2])
		if r0 == r1 {
			t.Errorf("block %d: second replica on first's rack (%v)", i, reps)
		}
		if r1 != r2 {
			t.Errorf("block %d: third replica not on second's rack (%v)", i, reps)
		}
	}
}

func TestRackPlacementDegradesGracefully(t *testing.T) {
	t.Parallel()
	// 2 nodes, 2 racks, replication 2: both racks used, no panic.
	eng := sim.NewEngine(2)
	cl := cluster.New(eng, 2, nil)
	cl.ConfigureRacks(2, 0)
	cfg := DefaultConfig()
	cfg.Replication = 2
	fs := New(cl, cfg)
	f, err := fs.CreateFile("x", 256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	if cl.SameRack(reps[0], reps[1]) {
		t.Errorf("replicas on same rack: %v", reps)
	}
}

func TestRemoteReadPrefersSameRack(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newRackedFS(t, 8, 2, 0, 3)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	// Find a non-replica node sharing a rack with some replica.
	var reader cluster.NodeID = -1
	for i := 0; i < 8; i++ {
		id := cluster.NodeID(i)
		isReplica := false
		sameRack := false
		for _, r := range reps {
			if r == id {
				isReplica = true
			}
			if cl.SameRack(id, r) {
				sameRack = true
			}
		}
		if !isReplica && sameRack {
			reader = id
			break
		}
	}
	if reader < 0 {
		t.Skip("no suitable reader with this seed")
	}
	var res ReadResult
	fs.ReadBlock(reader, b, func(r ReadResult) { res = r })
	eng.Run()
	if !cl.SameRack(reader, res.Server) {
		t.Errorf("read served cross-rack from %v though a same-rack replica exists (%v)",
			res.Server, reps)
	}
}

func TestCrossRackReadTraversesCore(t *testing.T) {
	t.Parallel()
	// A tiny core (20MB/s) makes cross-rack memory reads obviously slow.
	eng, cl, fs := newRackedFS(t, 4, 2, 20*float64(sim.MB), 4)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	server := fs.Replicas(b)[0]
	fs.RegisterMem(b, server)
	// Pick a reader on the other rack.
	var reader cluster.NodeID = -1
	for i := 0; i < 4; i++ {
		if !cl.SameRack(cluster.NodeID(i), server) {
			reader = cluster.NodeID(i)
			break
		}
	}
	var res ReadResult
	fs.ReadBlock(reader, b, func(r ReadResult) { res = r })
	eng.RunFor(5 * time.Minute)
	// 256MB through a 20MB/s core ~ 12.8s; without the core it would be
	// ~0.2s over the NIC.
	if d := res.Duration().Seconds(); d < 10 {
		t.Errorf("cross-rack read took %.1fs; core not charged", d)
	}

	// Same-rack memory read stays NIC-fast.
	var sameRackReader cluster.NodeID = -1
	for i := 0; i < 4; i++ {
		id := cluster.NodeID(i)
		if id != server && cl.SameRack(id, server) {
			sameRackReader = id
			break
		}
	}
	if sameRackReader >= 0 {
		var res2 ReadResult
		fs.ReadBlock(sameRackReader, b, func(r ReadResult) { res2 = r })
		eng.RunFor(5 * time.Minute)
		if d := res2.Duration().Seconds(); d > 1 {
			t.Errorf("same-rack memory read took %.1fs; should not traverse core", d)
		}
	}
}

func TestCoreContention(t *testing.T) {
	t.Parallel()
	// Two concurrent cross-rack reads share the core fairly.
	eng, cl, fs := newRackedFS(t, 4, 2, 100*float64(sim.MB), 5)
	fa, _ := fs.CreateFile("a", 256*sim.MB)
	fb, _ := fs.CreateFile("b", 256*sim.MB)
	ba, bb := fa.Blocks[0], fb.Blocks[0]
	fs.RegisterMem(ba, fs.Replicas(ba)[0])
	fs.RegisterMem(bb, fs.Replicas(bb)[0])
	otherRack := func(server cluster.NodeID) cluster.NodeID {
		for i := 0; i < 4; i++ {
			if !cl.SameRack(cluster.NodeID(i), server) {
				return cluster.NodeID(i)
			}
		}
		return -1
	}
	var d1, d2 float64
	fs.ReadBlock(otherRack(fs.Replicas(ba)[0]), ba, func(r ReadResult) { d1 = r.Duration().Seconds() })
	fs.ReadBlock(otherRack(fs.Replicas(bb)[0]), bb, func(r ReadResult) { d2 = r.Duration().Seconds() })
	eng.RunFor(5 * time.Minute)
	// Each alone: 2.56s at 100MB/s; sharing: ~5.1s.
	if d1 < 4.5 || d2 < 4.5 {
		t.Errorf("concurrent cross-rack reads did not share the core: %.1fs %.1fs", d1, d2)
	}
}
