package cache

import (
	"fmt"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// resident counts the cached blocks.
func (c *Cache) resident() int {
	n := 0
	for _, e := range c.byBlock {
		if e != nil {
			n++
		}
	}
	return n
}

func newFS(t *testing.T, seed int64) (*sim.Engine, *dfs.FS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	// 3 nodes at replication 3: every node holds every block, so the
	// replica-anchored cache always buffers at the reading node (0) and
	// the per-node accounting assertions below stay exact.
	cl := cluster.New(eng, 3, nil)
	return eng, dfs.New(cl, dfs.DefaultConfig())
}

// readAll reads every block of the file from node 0 and runs the engine.
func readAll(t *testing.T, eng *sim.Engine, fs *dfs.FS, name string) []dfs.ReadResult {
	t.Helper()
	f, err := fs.File(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []dfs.ReadResult
	for _, id := range f.Blocks {
		if err := fs.ReadBlock(0, id, func(r dfs.ReadResult) { out = append(out, r) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(10 * time.Minute)
	return out
}

func TestSecondReadHitsCache(t *testing.T) {
	eng, fs := newFS(t, 1)
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("hot", 512*sim.MB)

	first := readAll(t, eng, fs, "hot")
	for _, r := range first {
		if r.Source.FromMemory() {
			t.Errorf("first read from memory: %v", r.Source)
		}
	}
	if c.Misses != 2 || c.Insertions != 2 {
		t.Fatalf("misses=%d insertions=%d", c.Misses, c.Insertions)
	}

	second := readAll(t, eng, fs, "hot")
	for _, r := range second {
		if !r.Source.FromMemory() {
			t.Errorf("second read not from memory: %v", r.Source)
		}
	}
	if c.Hits != 2 {
		t.Errorf("hits = %d", c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", c.HitRate())
	}
}

func TestBudgetEviction(t *testing.T) {
	eng, fs := newFS(t, 2)
	// Budget of 2 blocks per node; reads all land at node 0.
	c, err := New(fs, 512*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("a", 256*sim.MB)
	fs.CreateFile("b", 256*sim.MB)
	fs.CreateFile("c", 256*sim.MB)
	readAll(t, eng, fs, "a")
	readAll(t, eng, fs, "b")
	readAll(t, eng, fs, "c") // evicts "a" (LRU)
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
	if c.nodes[0].used != 512*sim.MB {
		t.Errorf("used = %d", c.nodes[0].used)
	}
	// "a" must miss again; "c" must hit.
	if r := readAll(t, eng, fs, "c"); !r[0].Source.FromMemory() {
		t.Error("c not cached")
	}
	aReads := readAll(t, eng, fs, "a")
	if aReads[0].Source.FromMemory() {
		t.Error("evicted block served from memory")
	}
}

func TestOversizeBlockNotCached(t *testing.T) {
	eng, fs := newFS(t, 5)
	c, err := New(fs, 100*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	fs.CreateFile("big", 256*sim.MB)
	readAll(t, eng, fs, "big")
	if c.resident() != 0 || c.Insertions != 0 {
		t.Errorf("oversize block cached: resident=%d", c.resident())
	}
}

func TestStaleEntryRevalidated(t *testing.T) {
	eng, fs := newFS(t, 6)
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.CreateFile("x", 256*sim.MB)
	readAll(t, eng, fs, "x")
	// Simulate an external subsystem dropping the replica (DYRS implicit
	// eviction or a slave restart).
	loc, _ := fs.MemReplica(f.Blocks[0])
	fs.DropMem(f.Blocks[0], loc)
	// The next read must detect staleness, miss, and re-insert.
	r := readAll(t, eng, fs, "x")
	if r[0].Source.FromMemory() {
		t.Error("stale entry served from memory")
	}
	if c.resident() != 1 {
		t.Errorf("resident = %d after revalidation", c.resident())
	}
	// And the read after that hits again.
	if r := readAll(t, eng, fs, "x"); !r[0].Source.FromMemory() {
		t.Error("revalidated entry not served from memory")
	}
}

func TestFlush(t *testing.T) {
	eng, fs := newFS(t, 7)
	c, _ := New(fs, 8*sim.GB, LRU)
	fs.CreateFile("x", 512*sim.MB)
	readAll(t, eng, fs, "x")
	if c.resident() != 2 {
		t.Fatalf("resident = %d", c.resident())
	}
	c.Flush()
	if c.resident() != 0 || fs.MemReplicaCount() != 0 || c.nodes[0].used != 0 {
		t.Error("flush left state")
	}
}

func TestPlacementAnchorsToReplicaHolder(t *testing.T) {
	// A read from a node holding no disk replica must cache the block on
	// a replica holder, not the reader — the DFS structural invariant
	// (fsck) forbids memory replicas without a disk replica underneath.
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, 8, nil)
	fs := dfs.New(cl, dfs.DefaultConfig())
	c, err := New(fs, 8*sim.GB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.CreateFile("x", 256*sim.MB)
	id := f.Blocks[0]
	holders := map[cluster.NodeID]bool{}
	for _, r := range fs.Replicas(id) {
		holders[r] = true
	}
	reader := cluster.NodeID(-1)
	for n := cluster.NodeID(0); int(n) < cl.Size(); n++ {
		if !holders[n] {
			reader = n
			break
		}
	}
	if reader < 0 {
		t.Skip("every node holds a replica")
	}
	if err := fs.ReadBlock(reader, id, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Minute)
	loc, ok := fs.MemReplica(id)
	if !ok {
		t.Fatal("block not cached")
	}
	if !holders[loc] {
		t.Errorf("cached on %v, which holds no disk replica", loc)
	}
	if c.nodes[reader].used != 0 {
		t.Errorf("reader charged %d bytes", c.nodes[reader].used)
	}
	if errs := fs.Fsck(); len(errs) > 0 {
		t.Errorf("fsck: %v", errs)
	}
}

// TestHitAndEvictingMissAllocs pins the read hook at zero allocations in
// steady state, for a hit and for a miss on a full node that evicts:
// the victim's entry is recycled for the new block, and the per-node
// list is intrusive, so no list element is allocated either.
func TestHitAndEvictingMissAllocs(t *testing.T) {
	_, fs := newFS(t, 10)
	c, err := New(fs, 2*256*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	var ids []dfs.BlockID
	for _, name := range []string{"a", "b", "c"} {
		f, _ := fs.CreateFile(name, 256*sim.MB)
		ids = append(ids, f.Blocks[0])
	}
	c.onRead(ids[0], 0)
	if allocs := testing.AllocsPerRun(100, func() { c.onRead(ids[0], 0) }); allocs != 0 {
		t.Errorf("cache hit allocates %.1f objects, want 0", allocs)
	}
	// Cycling through three blocks on a two-block budget misses and
	// evicts the least recent block every time.
	next := 0
	cycle := func() {
		next = (next + 1) % len(ids)
		c.onRead(ids[next], 0)
	}
	for i := 0; i < 6; i++ {
		cycle()
	}
	misses, evictions := c.Misses, c.Evictions
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("evicting miss allocates %.1f objects, want 0", allocs)
	}
	if c.Misses-misses != 101 || c.Evictions-evictions != 101 {
		t.Errorf("%d misses and %d evictions in 101 cycled reads, want 101 each",
			c.Misses-misses, c.Evictions-evictions)
	}
}

// TestLRUPerNodeVictims checks that eviction on one node takes that
// node's least recently used block however recently other nodes' blocks
// were used.
func TestLRUPerNodeVictims(t *testing.T) {
	eng := sim.NewEngine(11)
	cl := cluster.New(eng, 4, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 1
	fs := dfs.New(cl, cfg)
	c, err := New(fs, 2*256*sim.MB, LRU)
	if err != nil {
		t.Fatal(err)
	}
	// With replication 1 each block is buffered on its only holder.
	byNode := map[cluster.NodeID][]dfs.BlockID{}
	for i := 0; len(byNode[0]) < 3 || len(byNode[1]) < 1; i++ {
		f, _ := fs.CreateFile(fmt.Sprintf("f%d", i), 256*sim.MB)
		id := f.Blocks[0]
		n := fs.Replicas(id)[0]
		byNode[n] = append(byNode[n], id)
	}
	n0, n1 := byNode[0], byNode[1]
	c.onRead(n0[0], 0)
	c.onRead(n1[0], 0)
	c.onRead(n0[1], 0)
	c.onRead(n0[0], 0) // hit: n0[1] is now node 0's least recent
	c.onRead(n0[2], 0) // evicts n0[1]
	if _, ok := fs.MemReplica(n0[1]); ok {
		t.Error("node 0's least recent block survived the eviction")
	}
	for _, id := range []dfs.BlockID{n0[0], n0[2], n1[0]} {
		if _, ok := fs.MemReplica(id); !ok {
			t.Errorf("block %d evicted", id)
		}
	}
}

func TestInvalidBudget(t *testing.T) {
	_, fs := newFS(t, 8)
	if _, err := New(fs, 0, LRU); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" {
		t.Error("policy names wrong")
	}
}
