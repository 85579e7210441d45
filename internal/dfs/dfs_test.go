package dfs

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func newTestFS(t *testing.T, nodes int, seed int64) (*sim.Engine, *cluster.Cluster, *FS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, nodes, nil)
	fs := New(cl, DefaultConfig())
	return eng, cl, fs
}

func TestCreateFileBlocks(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 1)
	f, err := fs.CreateFile("input", 1000*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	// 1000MB / 256MB -> 4 blocks (3 full + 232MB).
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	var total sim.Bytes
	for i, id := range f.Blocks {
		total += fs.BlockSize(id)
		if bf := fs.fileList[fs.table.row(id).fileOf]; bf.Name != "input" || bf.Blocks[i] != id {
			t.Errorf("block %d metadata wrong: file %q, index %d", id, bf.Name, i)
		}
		reps := fs.Replicas(id)
		if len(reps) != 3 {
			t.Errorf("block %d has %d replicas", id, len(reps))
		}
		seen := map[cluster.NodeID]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Errorf("block %d has duplicate replica %v", id, r)
			}
			seen[r] = true
		}
	}
	if total != 1000*sim.MB {
		t.Errorf("block sizes sum to %d", total)
	}
}

func TestCreateFileErrors(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 1)
	if _, err := fs.CreateFile("a", 1*sim.MB); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CreateFile("a", 1*sim.MB); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := fs.CreateFile("b", 0); err == nil {
		t.Error("zero-size create should fail")
	}
	if _, err := fs.File("missing"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("missing file: %v", err)
	}
	if _, err := fs.FileBlockIDs([]string{"a", "missing"}); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("FileBlockIDs missing: %v", err)
	}
}

// TestCreateFileTooManyBlocks: a file whose block count overflows the
// rounding (math.MaxInt64 bytes) or would take the table past its int32
// row range is an error, and the catalog is left as it was. The rounding
// used to overflow into a negative capacity and panic.
func TestCreateFileTooManyBlocks(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 1)
	if _, err := fs.CreateFile("a", 3*256*sim.MB); err != nil {
		t.Fatal(err)
	}
	bs := fs.Config().BlockSize
	for _, size := range []sim.Bytes{
		math.MaxInt64,
		math.MaxInt64 - bs + 1,
		sim.Bytes(maxTableBlocks-fs.NumBlocks())*bs + 1,
	} {
		if _, err := fs.CreateFile("huge", size); !errors.Is(err, ErrTableFull) {
			t.Errorf("CreateFile of %d bytes: %v, want %v", size, err, ErrTableFull)
		}
		if n := fs.NumBlocks(); n != 3 {
			t.Errorf("after a rejected %d-byte file the table holds %d blocks, want 3", size, n)
		}
	}
	if _, err := fs.File("huge"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("rejected file is in the catalog: %v", err)
	}
	for _, err := range fs.Fsck() {
		t.Errorf("fsck after rejected creates: %v", err)
	}
	f, err := fs.CreateFile("huge", bs)
	if err != nil || f.Blocks[0] != 3 {
		t.Errorf("create after rejections: %v, blocks %v, want [3]", err, f)
	}
}

func TestPlacementSpreads(t *testing.T) {
	t.Parallel()
	_, cl, fs := newTestFS(t, 7, 2)
	_, err := fs.CreateFile("big", 70*256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cl.Size())
	for i := 0; i < fs.NumBlocks(); i++ {
		for _, r := range fs.Replicas(BlockID(i)) {
			counts[int(r)]++
		}
	}
	// 70 blocks x 3 replicas over 7 nodes = 30 each expected; the first
	// replica rotates so the spread must be reasonably tight.
	for i, c := range counts {
		if c < 15 || c > 45 {
			t.Errorf("node %d has %d replicas; distribution %v", i, c, counts)
		}
	}
}

func TestReadBlockDiskLocalPreferred(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 3)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	at := fs.Replicas(b)[1] // a replica holder; local read expected
	var res ReadResult
	if err := fs.ReadBlock(at, b, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source != SourceDiskLocal || res.Server != at {
		t.Errorf("source=%v server=%v, want disk-local at %v", res.Source, res.Server, at)
	}
	// 256MB at 130MB/s ~ 1.97s.
	if d := res.Duration().Seconds(); d < 1.9 || d > 2.1 {
		t.Errorf("duration = %vs", d)
	}
	if fs.DataNode(at).DiskReads != 1 {
		t.Errorf("disk reads = %d", fs.DataNode(at).DiskReads)
	}
}

func TestReadBlockDiskRemote(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 4)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	// Find a node holding no replica.
	var at cluster.NodeID = -1
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range reps {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			at = cluster.NodeID(i)
			break
		}
	}
	var res ReadResult
	if err := fs.ReadBlock(at, b, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source != SourceDiskRemote {
		t.Errorf("source = %v, want disk-remote", res.Source)
	}
	if fs.DataNode(res.Server).RemoteServes != 1 {
		t.Errorf("remote serves = %d", fs.DataNode(res.Server).RemoteServes)
	}
}

func TestReadRedirectsToMemory(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 5)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	memNode := fs.Replicas(b)[0]
	fs.RegisterMem(b, memNode)

	// Local memory read.
	var res ReadResult
	fs.ReadBlock(memNode, b, func(r ReadResult) { res = r })
	eng.Run()
	if res.Source != SourceMemLocal {
		t.Fatalf("source = %v, want mem-local", res.Source)
	}
	if d := res.Duration().Seconds(); d > 0.2 {
		t.Errorf("memory read took %vs, too slow", d)
	}

	// Remote memory read from another node.
	other := (memNode + 1) % 5
	fs.ReadBlock(other, b, func(r ReadResult) { res = r })
	eng.Run()
	if res.Source != SourceMemRemote || res.Server != memNode {
		t.Errorf("source=%v server=%v, want mem-remote from %v", res.Source, res.Server, memNode)
	}
	// Remote memory read is far faster than the ~2s disk read.
	if d := res.Duration().Seconds(); d > 0.5 {
		t.Errorf("remote memory read took %vs", d)
	}
}

func TestMemAccounting(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 6)
	f, _ := fs.CreateFile("in", 3*256*sim.MB)
	n := cluster.NodeID(0)
	for _, id := range f.Blocks {
		fs.RegisterMem(id, n)
	}
	dn := fs.DataNode(n)
	if dn.MemUsed() != 3*256*sim.MB || len(dn.resident) != 3 {
		t.Fatalf("mem used=%d count=%d", dn.MemUsed(), len(dn.resident))
	}
	// Double registration is idempotent.
	fs.RegisterMem(f.Blocks[0], n)
	if dn.MemUsed() != 3*256*sim.MB {
		t.Errorf("double-register changed accounting: %d", dn.MemUsed())
	}
	fs.DropMem(f.Blocks[0], n)
	if dn.MemUsed() != 2*256*sim.MB || dn.HasMem(f.Blocks[0]) {
		t.Errorf("drop failed: used=%d", dn.MemUsed())
	}
	if _, ok := fs.MemReplica(f.Blocks[0]); ok {
		t.Error("dropped block still registered")
	}
	// Dropping a non-resident block is a no-op.
	fs.DropMem(f.Blocks[0], n)
	fs.DropAllMem(n)
	if dn.MemUsed() != 0 || fs.MemReplicaCount() != 0 || fs.TotalMemUsed() != 0 {
		t.Errorf("DropAllMem left state: used=%d count=%d", dn.MemUsed(), fs.MemReplicaCount())
	}
}

func TestMemReplicaIgnoresDeadNode(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 7)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	memNode := fs.Replicas(b)[0]
	fs.RegisterMem(b, memNode)
	cl.KillNode(memNode)
	if _, ok := fs.MemReplica(b); ok {
		t.Error("dead node's memory replica still offered")
	}
	// Read must fail over to a live disk replica.
	var res ReadResult
	if err := fs.ReadBlock(memNode+1, b, func(r ReadResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if res.Source.FromMemory() {
		t.Errorf("read served from dead memory: %v", res.Source)
	}
	if res.Server == memNode {
		t.Error("read served by dead node")
	}
}

func TestReadNoReplica(t *testing.T) {
	t.Parallel()
	_, cl, fs := newTestFS(t, 3, 8)
	f, _ := fs.CreateFile("in", 10*sim.MB)
	for i := 0; i < 3; i++ {
		cl.KillNode(cluster.NodeID(i))
	}
	if err := fs.ReadBlock(0, f.Blocks[0], nil); !errors.Is(err, ErrNoReplica) {
		t.Errorf("err = %v, want ErrNoReplica", err)
	}
}

func TestMigrateToMemory(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 9)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	dn := fs.DataNode(fs.Replicas(b)[0])
	var dur sim.Duration
	if _, err := dn.MigrateToMemory(b, 1, func(d sim.Duration) { dur = d }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !dn.HasMem(b) {
		t.Fatal("block not in memory after migration")
	}
	if loc, ok := fs.MemReplica(b); !ok || loc != dn.node.ID {
		t.Errorf("registry: %v %v", loc, ok)
	}
	if s := dur.Seconds(); s < 1.9 || s > 2.1 {
		t.Errorf("migration took %vs, want ~2s", s)
	}
}

func TestMigrateWithoutReplicaFails(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 10)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range reps {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			if _, err := fs.DataNode(cluster.NodeID(i)).MigrateToMemory(b, 1, nil); err == nil {
				t.Error("migration on non-replica node should fail")
			}
			return
		}
	}
}

func TestOnReadHook(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 11)
	f, _ := fs.CreateFile("in", 256*sim.MB)
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	var hookBlock BlockID = -1
	var hookAt cluster.NodeID = -1
	if err := fs.OnRead(func(id BlockID, at cluster.NodeID) { hookBlock, hookAt = id, at }); err != nil {
		t.Fatal(err)
	}
	if err := fs.OnRead(nil); err == nil {
		t.Error("nil hook accepted")
	}
	fs.ReadBlock(reps[0], b, nil)
	eng.Run()
	if hookBlock != b || hookAt != reps[0] {
		t.Errorf("hook saw %v@%v", hookBlock, hookAt)
	}
}

func TestWriteBlocks(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 12)
	done := false
	fs.WriteBlocks(0, 512*sim.MB, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	// 512MB local at 130MB/s shared with nothing: the local disk wrote two
	// 256MB blocks -> at least ~3.9s elapsed.
	if s := eng.Now().Seconds(); s < 3.5 {
		t.Errorf("write finished suspiciously fast: %vs", s)
	}
}

// TestWriteBlocksOnWriterDisk: output has replication 1, so every block
// of a write — two full blocks and a short one here — streams onto the
// writer's own disk and nowhere else, the blocks share that disk, and
// done runs once, at the instant the last block lands.
func TestWriteBlocksOnWriterDisk(t *testing.T) {
	t.Parallel()
	eng, cl, fs := newTestFS(t, 5, 12)
	const writer = cluster.NodeID(2)
	disk := cl.Node(writer).Disk
	size := 2*fs.Config().BlockSize + 88*sim.MB
	calls := 0
	var doneAt sim.Time
	fs.WriteBlocks(writer, size, func() {
		calls++
		doneAt = eng.Now()
		if n := disk.ActiveFlows(); n != 0 {
			t.Errorf("done ran with %d blocks still streaming", n)
		}
	})
	eng.Run()
	if calls != 1 {
		t.Fatalf("done ran %d times, want once", calls)
	}
	for i := 0; i < cl.Size(); i++ {
		want := 0
		if cluster.NodeID(i) == writer {
			want = 3
		}
		if got := fs.DataNode(cluster.NodeID(i)).BlocksWritten; got != want {
			t.Errorf("node %d wrote %d blocks, want %d", i, got, want)
		}
	}
	if got := disk.BytesMoved(); got != size {
		t.Errorf("writer's disk moved %d bytes, want %d", got, size)
	}
	// The disk was busy from the call to the last block, and the blocks
	// shared it, so the write took at least size ÷ bandwidth.
	if busy := disk.BusyTime(); sim.Time(busy) != doneAt {
		t.Errorf("done at %v, but the disk was busy for %v", doneAt, busy)
	}
	if floor := float64(size) / disk.Capacity(); doneAt.Seconds() < floor {
		t.Errorf("write took %.3fs, faster than the disk's %.3fs", doneAt.Seconds(), floor)
	}
}

func TestWriteBlocksZeroSize(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 3, 13)
	done := false
	fs.WriteBlocks(0, 0, func() { done = true })
	eng.Run()
	if !done {
		t.Error("zero-size write should still call done")
	}
}

func TestReadSourceString(t *testing.T) {
	t.Parallel()
	cases := map[ReadSource]string{
		SourceDiskLocal:  "disk-local",
		SourceDiskRemote: "disk-remote",
		SourceMemLocal:   "mem-local",
		SourceMemRemote:  "mem-remote",
		ReadSource(99):   "unknown",
	}
	for src, want := range cases {
		if src.String() != want {
			t.Errorf("%d.String() = %q", src, src.String())
		}
	}
	if !SourceMemLocal.FromMemory() || SourceDiskLocal.FromMemory() {
		t.Error("FromMemory wrong")
	}
}

// Property: memory accounting balances under random register/drop
// sequences — used bytes always equal the sum of resident block sizes and
// never go negative.
func TestPropertyMemAccountingBalances(t *testing.T) {
	t.Parallel()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		cl := cluster.New(eng, 4, nil)
		fs := New(cl, DefaultConfig())
		f, err := fs.CreateFile("f", sim.Bytes(1+rng.Intn(40))*256*sim.MB)
		if err != nil {
			return false
		}
		for op := 0; op < 200; op++ {
			id := f.Blocks[rng.Intn(len(f.Blocks))]
			node := cluster.NodeID(rng.Intn(4))
			if rng.Intn(2) == 0 {
				fs.RegisterMem(id, node)
			} else {
				fs.DropMem(id, node)
			}
		}
		var want sim.Bytes
		for i := 0; i < 4; i++ {
			dn := fs.DataNode(cluster.NodeID(i))
			if dn.MemUsed() < 0 {
				return false
			}
			want += dn.MemUsed()
		}
		return fs.TotalMemUsed() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedBlockIDs(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 14)
	fs.CreateFile("a", 512*sim.MB)
	fs.CreateFile("b", 512*sim.MB)
	ids := fs.SortedBlockIDs([]string{"b", "a"})
	if len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
	if fs.SortedBlockIDs([]string{"missing"}) != nil {
		t.Error("missing file should return nil")
	}
}

func TestConcurrentReadsShareDisk(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 15)
	cfg := fs.Config()
	f, _ := fs.CreateFile("in", 2*cfg.BlockSize)
	b0, b1 := f.Blocks[0], f.Blocks[1]
	// Force both reads onto the same serving node if they share a replica.
	var common cluster.NodeID = -1
	for _, r0 := range fs.Replicas(b0) {
		for _, r1 := range fs.Replicas(b1) {
			if r0 == r1 {
				common = r0
			}
		}
	}
	if common < 0 {
		t.Skip("no common replica with this seed")
	}
	var d0, d1 time.Duration
	fs.ReadBlock(common, b0, func(r ReadResult) { d0 = r.Duration() })
	fs.ReadBlock(common, b1, func(r ReadResult) { d1 = r.Duration() })
	eng.Run()
	// Sharing one disk with seek penalty must take >2x a solo read.
	if d0.Seconds() < 3.9 || d1.Seconds() < 3.9 {
		t.Errorf("shared reads took %v and %v; expected >3.9s", d0, d1)
	}
}

func TestFsckCleanState(t *testing.T) {
	t.Parallel()
	eng, _, fs := newTestFS(t, 5, 40)
	fs.CreateFile("a", 3*256*sim.MB)
	fs.CreateFile("b", 100*sim.MB)
	f, _ := fs.File("a")
	fs.RegisterMem(f.Blocks[0], fs.Replicas(f.Blocks[0])[0])
	eng.Run()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Errorf("clean state reported errors: %v", errs)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	t.Parallel()
	_, _, fs := newTestFS(t, 5, 41)
	f, _ := fs.CreateFile("a", 2*256*sim.MB)
	// Corrupt: register a memory replica on a node without a disk
	// replica (violates invariant 5), bypassing the migration path.
	b := f.Blocks[0]
	reps := fs.Replicas(b)
	var nonHolder cluster.NodeID = -1
	for i := 0; i < 5; i++ {
		holds := false
		for _, r := range reps {
			if r == cluster.NodeID(i) {
				holds = true
			}
		}
		if !holds {
			nonHolder = cluster.NodeID(i)
			break
		}
	}
	fs.RegisterMem(b, nonHolder)
	if errs := fs.Fsck(); len(errs) == 0 {
		t.Error("fsck missed a memory replica without a disk replica")
	}
}
