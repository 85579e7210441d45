package migration

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// TestRackIndexAcrossMasterRestart proves a migration-master fail-over
// never disturbs the NameNode's per-rack replica counts: the disk
// catalog is the master's input, not its soft state. In-memory replicas
// survive the restart at the slaves (§III-C1), are reclaimed by
// scavenging once orphaned, and the framework accepts new work against
// the unchanged rack topology afterwards.
func TestRackIndexAcrossMasterRestart(t *testing.T) {
	const nodes, racks, blocks = 12, 4, 48
	eng := sim.NewEngine(21)
	cl := cluster.New(eng, nodes, nil)
	cl.ConfigureRacks(racks, 0)
	fs := dfs.New(cl, dfs.DefaultConfig())
	c := NewCoordinator(fs, DefaultConfig(), NewDYRSBinder())

	if _, err := fs.CreateFile("in", blocks*fs.Config().BlockSize); err != nil {
		t.Fatal(err)
	}
	fsckClean := func(when string) {
		t.Helper()
		for _, err := range fs.Fsck() {
			t.Errorf("fsck %s: %v", when, err)
		}
	}
	before := rackBlockCounts(fs)

	if err := c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(10 * time.Minute))
	if got := fs.MemReplicaCount(); got != blocks {
		t.Fatalf("migrated %d of %d blocks before restart", got, blocks)
	}
	fsckClean("after migration")

	c.RestartMaster()
	for r, got := range rackBlockCounts(fs) {
		if want := before[r]; got != want {
			t.Errorf("rack %d count changed across master restart: %d -> %d", r, want, got)
		}
	}
	if got := fs.MemReplicaCount(); got != blocks {
		t.Errorf("restart dropped slave-held memory replicas: %d of %d left", got, blocks)
	}
	fsckClean("after master restart")

	// The new master has no reference lists; every buffered block is an
	// orphan and scavenging reclaims it.
	c.ScavengeAll()
	eng.RunFor(10 * time.Second)
	if got := fs.MemReplicaCount(); got != 0 {
		t.Errorf("%d memory replicas survived scavenging", got)
	}
	if got := fs.TotalMemUsed(); got != 0 {
		t.Errorf("%d buffered bytes survived scavenging", got)
	}
	fsckClean("after scavenging")

	// The catalog is still intact, so a fresh job migrates fully.
	if err := c.Migrate(2, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(10 * time.Minute)
	if got := fs.MemReplicaCount(); got != blocks {
		t.Errorf("re-migration after restart landed %d of %d blocks", got, blocks)
	}
	for r, got := range rackBlockCounts(fs) {
		if want := before[r]; got != want {
			t.Errorf("rack %d count changed across re-migration: %d -> %d", r, want, got)
		}
	}
	fsckClean("after re-migration")
	c.Shutdown()
}

// rackBlockCounts counts the disk replicas homed in each rack, scanning
// the NameNode catalog.
func rackBlockCounts(fs *dfs.FS) []int {
	cl := fs.Cluster()
	out := make([]int, cl.Racks())
	for id := dfs.BlockID(0); int(id) < fs.NumBlocks(); id++ {
		for _, r := range fs.Replicas(id) {
			out[cl.Rack(r)]++
		}
	}
	return out
}
