package dfs

import (
	"runtime"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// TestWriteAllocs pins a warm two-block write at zero allocations: the
// op and both blocks' flows come from pools.
func TestWriteAllocs(t *testing.T) {
	eng := sim.NewEngine(2)
	fs := New(cluster.New(eng, 6, nil), DefaultConfig())
	writes := 0
	done := func() { writes++ }
	write := func() {
		fs.WriteBlocks(3, 2*256*sim.MB, done)
		eng.Run()
	}
	for i := 0; i < 50; i++ {
		write()
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("WriteBlocks allocates %.1f objects, want 0", allocs)
	}
	if writes != 151 {
		t.Errorf("%d of 151 writes completed", writes)
	}
}

// readFixture is a racked cluster with a modeled core, one block and a
// reader for each of the four read sources.
type readFixture struct {
	eng    *sim.Engine
	fs     *FS
	blocks [4]BlockID
	at     [4]cluster.NodeID
}

// newReadFixture builds 12 nodes in 4 racks (so a reader can sit on a
// rack holding no replica) and picks, per source:
//   - disk-local: a replica holder reads its block;
//   - disk-remote: a node on a replica-free rack reads across the core;
//   - mem-local: a replica holder reads its block buffered on itself;
//   - mem-remote: a non-holder reads a block buffered on a holder.
func newReadFixture(t *testing.T) *readFixture {
	t.Helper()
	eng := sim.NewEngine(5)
	cl := cluster.New(eng, 12, nil)
	cl.ConfigureRacks(4, 1250*float64(sim.MB))
	fs := New(cl, DefaultConfig())
	fx := &readFixture{eng: eng, fs: fs}
	for src := SourceDiskLocal; src <= SourceMemRemote; src++ {
		f, err := fs.CreateFile(src.String(), 256*sim.MB)
		if err != nil {
			t.Fatal(err)
		}
		id := f.Blocks[0]
		reps := fs.Replicas(id)
		fx.blocks[src] = id
		fx.at[src] = reps[0]
		switch src {
		case SourceDiskRemote:
			fx.at[src] = -1
			for n := cluster.NodeID(0); int(n) < cl.Size() && fx.at[src] < 0; n++ {
				free := true
				for _, r := range reps {
					free = free && !cl.SameRack(n, r)
				}
				if free {
					fx.at[src] = n
				}
			}
			if fx.at[src] < 0 {
				t.Fatal("every rack holds a replica")
			}
		case SourceMemLocal:
			fs.RegisterMem(id, reps[0])
		case SourceMemRemote:
			fs.RegisterMem(id, reps[0])
			fx.at[src] = -1
			for n := cluster.NodeID(0); int(n) < cl.Size() && fx.at[src] < 0; n++ {
				if !fs.table.holdsReplica(id, n) {
					fx.at[src] = n
				}
			}
		}
	}
	return fx
}

// TestReadBlockAllocs pins a steady-state read from each source at zero
// allocations with no tracer: the op, its latency timer and its flows
// all come from pools.
func TestReadBlockAllocs(t *testing.T) {
	fx := newReadFixture(t)
	var got ReadResult
	done := func(r ReadResult) { got = r }
	for src := SourceDiskLocal; src <= SourceMemRemote; src++ {
		read := func() {
			if err := fx.fs.ReadBlock(fx.at[src], fx.blocks[src], done); err != nil {
				t.Fatal(err)
			}
			fx.eng.Run()
		}
		core := fx.fs.cl.Core()
		before := core.BytesMoved()
		read()
		if got.Source != src || got.Block != fx.blocks[src] {
			t.Fatalf("read of %v from %v served as %+v", fx.blocks[src], fx.at[src], got)
		}
		if src == SourceDiskRemote && core.BytesMoved()-before != 256*sim.MB {
			t.Fatalf("cross-rack read moved %d bytes through the core", core.BytesMoved()-before)
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			t.Errorf("%v read allocates %.1f objects, want 0", src, allocs)
		}
	}
}

// TestReadOpPoolReuse checks the pool's reuse contract: a chain of reads
// whose done issues the next read runs on one recycled op, also while a
// read that fails over from a dead replica holder is in flight on
// another, and every result still describes its own read.
func TestReadOpPoolReuse(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 60)
	fs.EnableHeartbeats()
	fa, _ := fs.CreateFile("a", 256*sim.MB)
	fb, _ := fs.CreateFile("b", 256*sim.MB)
	a, b := fa.Blocks[0], fb.Blocks[0]
	victim := fs.Replicas(a)[0]
	var reader cluster.NodeID = -1
	for _, r := range fs.Replicas(b) {
		if r != victim {
			reader = r
			break
		}
	}

	// runChain reads b at reader n times in a row, each read issued by
	// the previous one's done, and checks every result.
	runChain := func(n int, until sim.Time) {
		t.Helper()
		var results []ReadResult
		var next func(ReadResult)
		next = func(r ReadResult) {
			results = append(results, r)
			if len(results) < n {
				if err := fs.ReadBlock(reader, b, next); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.ReadBlock(reader, b, next); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(until)
		if len(results) != n {
			t.Fatalf("chain completed %d reads, want %d", len(results), n)
		}
		for i, r := range results {
			if r.Block != b || r.Source != SourceDiskLocal || r.Server != reader || r.Failed {
				t.Fatalf("chained read %d: %+v", i, r)
			}
			if i > 0 && r.Started != results[i-1].Finished {
				t.Fatalf("chained read %d started at %v, previous finished at %v", i, r.Started, results[i-1].Finished)
			}
		}
	}

	// Alone, the chain runs on a single op: were done called before its
	// op is recycled, every chained read would find the pool empty.
	runChain(5, sim.Time(time.Minute))
	if n := len(fs.readPool); n != 1 {
		t.Fatalf("chain left %d ops in the pool, want 1", n)
	}

	cl.KillNode(victim)
	// The stale view still offers the victim, so this read pays the
	// connect timeout and then retries on a live replica, taking a
	// second op while the chain holds the first.
	var failover ReadResult
	if err := fs.ReadBlock(victim, a, func(r ReadResult) { failover = r }); err != nil {
		t.Fatal(err)
	}
	runChain(20, sim.Time(10*time.Minute))
	if failover.Block != a || failover.Failed || failover.Server == victim || failover.Started != sim.Time(time.Minute) {
		t.Fatalf("failover read: %+v", failover)
	}
	if fs.FailedOvers() != 1 {
		t.Errorf("failed over %d times, want 1", fs.FailedOvers())
	}
	if n := len(fs.readPool); n != 2 {
		t.Errorf("pool holds %d ops, want 2", n)
	}
	for _, op := range fs.readPool {
		if op.done != nil || op.legs != [2]*sim.Resource{} {
			t.Errorf("pooled op still references its last read: %+v", op)
		}
	}
}

// TestReadOpPoolWaves: the read-op pool is bounded by concurrency, not
// by the number of reads. A first wave of n concurrent reads allocates
// n ops; once it drains they are all pooled, and a second wave of n
// takes every op from the pool and allocates none, so the whole wave
// allocates nothing. n is about the peak of in-flight reads an open-loop
// serving run reaches on 200 nodes, below the pool's maxFreeOps cap.
func TestReadOpPoolWaves(t *testing.T) {
	const n = 4096
	if n > maxFreeOps {
		t.Fatalf("a wave of %d reads overflows the %d-op pool", n, maxFreeOps)
	}
	eng, cl, fs := newTestFS(t, 20, 9)
	f, err := fs.CreateFile("in", 200*fs.Config().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(r ReadResult) {
		if !r.Failed {
			completed++
		}
	}
	wave := func() {
		for i := 0; i < n; i++ {
			id := f.Blocks[i%len(f.Blocks)]
			at := cluster.NodeID(i % cl.Size())
			if err := fs.ReadBlock(at, id, done); err != nil {
				t.Fatal(err)
			}
		}
		if len(fs.readPool) != 0 {
			t.Fatalf("%d ops left in the pool with a whole wave in flight", len(fs.readPool))
		}
		eng.Run()
	}
	wave()
	if got := len(fs.readPool); got != n {
		t.Fatalf("first wave left %d ops in the pool, want %d", got, n)
	}
	if allocs := testing.AllocsPerRun(1, wave); allocs != 0 {
		t.Errorf("a warm wave of %d reads allocates %.0f objects, want 0", n, allocs)
	}
	if got := len(fs.readPool); got != n {
		t.Errorf("after three waves the pool holds %d ops, want %d: a wave allocated ops", got, n)
	}
	if completed != 3*n {
		t.Errorf("%d of %d reads completed", completed, 3*n)
	}
}

// TestBlockTableGrowthAllocBytes bounds what adding 2^18 blocks to a
// 3-way table allocates per block. Pages never move, so the table
// allocates what it holds, a 16 B record and 12 B of replica slots per
// block, plus its page directories. The flat columns it replaced
// allocated about 56 B per block doubled by CreateFile, 144 B grown by
// append.
func TestBlockTableGrowthAllocBytes(t *testing.T) {
	const n = 1 << 18
	tab := newBlockTable(3)
	reps := []cluster.NodeID{0, 1, 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tab.add(256*sim.MB, int32(i>>10), reps)
	}
	runtime.ReadMemStats(&after)
	if perBlock := float64(after.TotalAlloc-before.TotalAlloc) / n; perBlock > 30 {
		t.Errorf("table allocates %.2f B per block, want at most 30", perBlock)
	}
	if tab.len() != n {
		t.Fatalf("table holds %d blocks, want %d", tab.len(), n)
	}
}
