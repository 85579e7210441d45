package migration

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
)

// testRig bundles a small simulated cluster with a migration framework.
type testRig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.FS
	c   *Coordinator
}

func newRig(t *testing.T, seed int64, nodes int, binder Binder, cfgNode func(int) cluster.NodeConfig, cfg Config) *testRig {
	t.Helper()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, nodes, cfgNode)
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > nodes {
		fsCfg.Replication = nodes
	}
	fs := dfs.New(cl, fsCfg)
	c := NewCoordinator(fs, cfg, binder)
	return &testRig{eng: eng, cl: cl, fs: fs, c: c}
}

func (r *testRig) mkFile(t *testing.T, name string, blocks int) *dfs.File {
	t.Helper()
	f, err := r.fs.CreateFile(name, sim.Bytes(blocks)*r.fs.Config().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDYRSMigratesWholeFile(t *testing.T) {
	r := newRig(t, 1, 4, NewDYRSBinder(), nil, DefaultConfig())
	f := r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(60 * time.Second))
	st := r.c.Stats()
	if st.Requested != 8 || st.Migrated != 8 {
		t.Fatalf("requested=%d migrated=%d, want 8/8", st.Requested, st.Migrated)
	}
	for _, id := range f.Blocks {
		if _, ok := r.fs.MemReplica(id); !ok {
			t.Errorf("block %d not in memory", id)
		}
	}
	if st.BytesMigrated != 8*r.fs.Config().BlockSize {
		t.Errorf("bytes migrated = %d", st.BytesMigrated)
	}
	if r.c.PendingBlocks() != 0 || r.c.QueuedBlocks() != 0 {
		t.Errorf("leftover pending=%d queued=%d", r.c.PendingBlocks(), r.c.QueuedBlocks())
	}
	r.c.Shutdown()
}

func TestMigrateUnknownFile(t *testing.T) {
	r := newRig(t, 1, 4, NewDYRSBinder(), nil, DefaultConfig())
	if err := r.c.Migrate(1, []string{"nope"}, false); err == nil {
		t.Error("expected error for unknown file")
	}
}

func TestDYRSAvoidsSlowNode(t *testing.T) {
	slowCfg := func(i int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		if i == 0 {
			c.DiskScale = 0.08
		}
		return c
	}
	r := newRig(t, 2, 4, NewDYRSBinder(), slowCfg, DefaultConfig())
	r.mkFile(t, "in", 40)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(10 * time.Minute))
	st := r.c.Stats()
	if st.Migrated != 40 {
		t.Fatalf("migrated = %d, want 40", st.Migrated)
	}
	slow := r.c.Slave(0).Migrations
	var fast int
	for i := 1; i < 4; i++ {
		fast += r.c.Slave(cluster.NodeID(i)).Migrations
	}
	// The slow node runs at 8% speed; DYRS should route the bulk of
	// migrations to the fast nodes once the estimate adapts.
	if slow > 6 {
		t.Errorf("slow node performed %d of 40 migrations (fast: %d)", slow, fast)
	}
	r.c.Shutdown()
}

func TestIgnemBindsImmediatelyAndEvenly(t *testing.T) {
	slowCfg := func(i int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		if i == 0 {
			c.DiskScale = 0.08
		}
		return c
	}
	r := newRig(t, 3, 4, NewPolicyBinder(policy.NewIgnem()), slowCfg, DefaultConfig())
	r.mkFile(t, "in", 40)
	r.c.Migrate(1, []string{"in"}, false)
	if r.c.PendingBlocks() != 0 {
		t.Errorf("Ignem left %d pending", r.c.PendingBlocks())
	}
	if got := r.c.QueuedBlocks(); got != 40 {
		t.Errorf("queued = %d, want 40 (immediate binding)", got)
	}
	r.eng.RunUntil(sim.Time(30 * time.Minute))
	if st := r.c.Stats(); st.Migrated != 40 {
		t.Fatalf("migrated = %d", st.Migrated)
	}
	// Random binding ignores the slow node: it gets roughly its
	// proportional share of bound migrations despite being 12x slower.
	slow := r.c.Slave(0).Migrations
	if slow < 3 {
		t.Errorf("Ignem unexpectedly avoided the slow node: %d migrations", slow)
	}
	r.c.Shutdown()
}

func TestReadsRedirectAfterMigration(t *testing.T) {
	r := newRig(t, 4, 4, NewDYRSBinder(), nil, DefaultConfig())
	f := r.mkFile(t, "in", 2)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(30 * time.Second))
	var res dfs.ReadResult
	r.fs.ReadBlock(0, f.Blocks[0], func(rr dfs.ReadResult) { res = rr })
	r.eng.RunUntil(sim.Time(40 * time.Second))
	if !res.Source.FromMemory() {
		t.Errorf("read source = %v, want memory", res.Source)
	}
	r.c.Shutdown()
}

func TestExplicitEvict(t *testing.T) {
	r := newRig(t, 5, 4, NewDYRSBinder(), nil, DefaultConfig())
	f := r.mkFile(t, "in", 4)
	r.c.Migrate(7, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(60 * time.Second))
	if r.fs.MemReplicaCount() != 4 {
		t.Fatalf("in memory = %d, want 4", r.fs.MemReplicaCount())
	}
	r.c.Evict(7)
	if r.fs.MemReplicaCount() != 0 || r.fs.TotalMemUsed() != 0 {
		t.Errorf("eviction left %d blocks, %d bytes", r.fs.MemReplicaCount(), r.fs.TotalMemUsed())
	}
	if st := r.c.Stats(); st.Evicted != 4 {
		t.Errorf("evicted = %d", st.Evicted)
	}
	_ = f
	r.c.Shutdown()
}

func TestSharedBlockSurvivesOneJobsEviction(t *testing.T) {
	r := newRig(t, 6, 4, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 2)
	r.c.Migrate(1, []string{"in"}, false)
	r.c.Migrate(2, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(60 * time.Second))
	if r.fs.MemReplicaCount() != 2 {
		t.Fatalf("in memory = %d", r.fs.MemReplicaCount())
	}
	r.c.Evict(1)
	if r.fs.MemReplicaCount() != 2 {
		t.Error("block evicted while job 2 still references it")
	}
	r.c.Evict(2)
	if r.fs.MemReplicaCount() != 0 {
		t.Error("block not evicted after last reference removed")
	}
	r.c.Shutdown()
}

func TestImplicitEvictionOnRead(t *testing.T) {
	r := newRig(t, 7, 4, NewDYRSBinder(), nil, DefaultConfig())
	f := r.mkFile(t, "in", 2)
	r.c.Migrate(1, []string{"in"}, true)
	r.eng.RunUntil(sim.Time(60 * time.Second))
	if r.fs.MemReplicaCount() != 2 {
		t.Fatalf("in memory = %d", r.fs.MemReplicaCount())
	}
	r.c.NoteRead(1, f.Blocks[0])
	if r.fs.MemReplicaCount() != 1 {
		t.Errorf("implicit eviction did not fire: %d in memory", r.fs.MemReplicaCount())
	}
	if st := r.c.Stats(); st.MemoryHits != 1 {
		t.Errorf("memory hits = %d", st.MemoryHits)
	}
	r.c.Shutdown()
}

func TestExplicitModeIgnoresReads(t *testing.T) {
	r := newRig(t, 8, 4, NewDYRSBinder(), nil, DefaultConfig())
	f := r.mkFile(t, "in", 2)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(60 * time.Second))
	r.c.NoteRead(1, f.Blocks[0])
	if r.fs.MemReplicaCount() != 2 {
		t.Errorf("explicit-mode read evicted a block")
	}
	r.c.Shutdown()
}

func TestMissedReadCancelsPendingMigration(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 9, 4, NewDYRSBinder(), nil, cfg)
	f := r.mkFile(t, "in", 30)
	r.c.Migrate(1, []string{"in"}, true)
	// Immediately read a block before any real chance to migrate it; with
	// 30 blocks pending, most are still unbound.
	lastID := f.Blocks[len(f.Blocks)-1]
	r.eng.RunUntil(sim.Time(10 * time.Millisecond))
	before := r.c.PendingBlocks() + r.c.QueuedBlocks()
	r.c.NoteRead(1, lastID)
	after := r.c.PendingBlocks() + r.c.QueuedBlocks()
	st := r.c.Stats()
	if st.MissedReads != 1 {
		t.Errorf("missed reads = %d", st.MissedReads)
	}
	if bi := r.c.blockRecord(lastID); bi.state == statePending || bi.state == stateQueued {
		t.Errorf("missed-read block still %v", bi.state)
	}
	if after >= before {
		t.Errorf("pipeline did not shrink: %d -> %d", before, after)
	}
	r.eng.RunUntil(sim.Time(5 * time.Minute))
	if got := r.c.Stats().Migrated; got != 29 {
		t.Errorf("migrated = %d, want 29 (one cancelled)", got)
	}
	r.c.Shutdown()
}

func TestMemoryHardLimitBlocksThenResumes(t *testing.T) {
	nodeCfg := func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.MemCapacity = 512 * sim.MB // room for 2 blocks per node
		return c
	}
	r := newRig(t, 10, 2, NewDYRSBinder(), nodeCfg, DefaultConfig())
	// 2 nodes x 2 blocks = 4 blocks fit; request 8.
	f := r.mkFile(t, "in", 8)
	r.c.Migrate(1, []string{"in"}, true)
	r.eng.RunUntil(sim.Time(2 * time.Minute))
	st := r.c.Stats()
	if st.Migrated >= 8 {
		t.Fatalf("all 8 migrated despite 4-block capacity")
	}
	if r.fs.TotalMemUsed() > 1024*sim.MB {
		t.Fatalf("memory over hard limit: %d", r.fs.TotalMemUsed())
	}
	blocked := r.c.Slave(0).BlockedOnMemory + r.c.Slave(1).BlockedOnMemory
	if blocked == 0 {
		t.Error("no migration was ever blocked on memory")
	}
	// Reads free memory (implicit eviction), letting the rest migrate.
	for _, id := range f.Blocks {
		r.c.NoteRead(1, id)
	}
	r.eng.RunUntil(sim.Time(10 * time.Minute))
	if r.fs.TotalMemUsed() != 0 {
		t.Errorf("memory not drained: %d", r.fs.TotalMemUsed())
	}
	r.c.Shutdown()
}

func TestScavengeReclaimsDeadJobs(t *testing.T) {
	nodeCfg := func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.MemCapacity = 1024 * sim.MB
		return c
	}
	cfg := DefaultConfig()
	cfg.ScavengeThreshold = 0.4
	r := newRig(t, 11, 2, NewDYRSBinder(), nodeCfg, cfg)
	r.mkFile(t, "in", 6)
	dead := map[JobID]bool{}
	r.c.SetScheduler(jobCheckerFunc(func(j JobID) bool { return !dead[j] }))
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(90 * time.Second))
	if r.fs.MemReplicaCount() == 0 {
		t.Fatal("nothing migrated")
	}
	// Job 1 dies without evicting; scavenging must reclaim its blocks
	// once usage exceeds the threshold.
	dead[1] = true
	r.eng.RunUntil(sim.Time(3 * time.Minute))
	if r.fs.MemReplicaCount() != 0 {
		t.Errorf("scavenge left %d blocks resident", r.fs.MemReplicaCount())
	}
	r.c.Shutdown()
}

type jobCheckerFunc func(JobID) bool

func (f jobCheckerFunc) JobActive(j JobID) bool { return f(j) }

func TestSlaveProcessRestartDropsBuffers(t *testing.T) {
	r := newRig(t, 12, 4, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 12)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(5 * time.Second))
	// Pick a node that has buffered or queued something.
	var victim cluster.NodeID = -1
	for i := 0; i < 4; i++ {
		if r.fs.DataNode(cluster.NodeID(i)).MemUsed() > 0 || r.c.Slave(cluster.NodeID(i)).occupancy() > 0 {
			victim = cluster.NodeID(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no node had state at 5s with this seed")
	}
	r.c.RestartSlaveProcess(victim)
	if r.fs.DataNode(victim).MemUsed() != 0 {
		t.Error("restart left buffered bytes")
	}
	if r.c.Slave(victim).occupancy() != 0 {
		t.Error("restart left queued work")
	}
	// The system keeps functioning afterwards.
	r.eng.RunUntil(sim.Time(5 * time.Minute))
	if st := r.c.Stats(); st.Migrated == 0 {
		t.Error("no migrations completed after slave restart")
	}
	r.c.Shutdown()
}

func TestMasterRestartKeepsSystemAlive(t *testing.T) {
	r := newRig(t, 13, 4, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "a", 6)
	r.mkFile(t, "b", 6)
	r.c.Migrate(1, []string{"a"}, false)
	r.eng.RunUntil(sim.Time(3 * time.Second))
	r.c.RestartMaster()
	if r.c.PendingBlocks() != 0 {
		t.Error("master restart kept pending state")
	}
	// New requests after fail-over work normally.
	if err := r.c.Migrate(2, []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(5 * time.Minute))
	blocks, _ := r.fs.FileBlocks([]string{"b"})
	for _, b := range blocks {
		if _, ok := r.fs.MemReplica(b.ID); !ok {
			t.Errorf("post-restart migration incomplete: block %d", b.ID)
		}
	}
	r.c.Shutdown()
}

func TestNodeDeathReroutesPending(t *testing.T) {
	r := newRig(t, 14, 5, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 20)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(2 * time.Second))
	r.cl.KillNode(2)
	r.c.RestartSlaveProcess(2) // crash semantics: lose its work
	r.eng.RunUntil(sim.Time(10 * time.Minute))
	// Everything with a live replica still migrates; node 2 performed no
	// further work.
	st := r.c.Stats()
	if st.Migrated == 0 {
		t.Fatal("no migrations after node death")
	}
	if r.c.Slave(2).Migrations > 0 && !r.cl.Node(2).Alive() {
		// migrations before death are fine; ensure none started after
		// death by checking the slave is idle.
		if r.c.Slave(2).occupancy() != 0 {
			t.Error("dead node still has queued work")
		}
	}
	r.c.Shutdown()
}

func TestSerializedMigrationOnePerSlave(t *testing.T) {
	r := newRig(t, 15, 2, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 10)
	r.c.Migrate(1, []string{"in"}, false)
	// Sample during the run: no disk should ever serve two migration
	// flows (migration is the only traffic here).
	for i := 1; i <= 40; i++ {
		r.eng.RunUntil(sim.Time(time.Duration(i) * 500 * time.Millisecond))
		for n := 0; n < 2; n++ {
			if got := r.cl.Node(cluster.NodeID(n)).Disk.ActiveFlows(); got > 1 {
				t.Fatalf("node %d disk has %d concurrent flows", n, got)
			}
		}
	}
	r.c.Shutdown()
}

func TestEstimatorTracksInterference(t *testing.T) {
	r := newRig(t, 16, 2, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 30)
	node := r.cl.Node(0)
	baseline := r.c.Slave(0).EstimateBlockSeconds(r.fs.Config().BlockSize)
	node.StartInterference(2, 1)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(60 * time.Second))
	inflated := r.c.Slave(0).EstimateBlockSeconds(r.fs.Config().BlockSize)
	if inflated < baseline*1.5 {
		t.Errorf("estimate %.2fs did not reflect interference (baseline %.2fs)", inflated, baseline)
	}
	series := r.c.EstimateSeries(0)
	if series.Len() == 0 {
		t.Error("no estimate series recorded")
	}
	r.c.Shutdown()
}

func TestInProgressInflationRaisesEstimateBeforeCompletion(t *testing.T) {
	// One node, one giant-block file: the migration takes a long time
	// under interference, and the estimate must rise while it is still
	// running (the §IV-A fix).
	eng := sim.NewEngine(17)
	cl := cluster.New(eng, 1, nil)
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 1
	fs := dfs.New(cl, fsCfg)
	c := NewCoordinator(fs, DefaultConfig(), NewDYRSBinder())
	if _, err := fs.CreateFile("in", 256*sim.MB); err != nil {
		t.Fatal(err)
	}
	// 9 competing streams -> migration runs ~10x slower (~20s+).
	cl.Node(0).StartInterference(9, 1)
	c.Migrate(1, []string{"in"}, false)
	before := c.Slave(0).EstimateBlockSeconds(fs.Config().BlockSize)
	eng.RunUntil(sim.Time(10 * time.Second))
	mid := c.Slave(0).EstimateBlockSeconds(fs.Config().BlockSize)
	if c.Stats().Migrated != 0 {
		t.Skip("migration finished too fast for the inflation window")
	}
	if mid <= before*1.2 {
		t.Errorf("estimate did not inflate mid-migration: %.2fs -> %.2fs", before, mid)
	}
	c.Shutdown()
}

func TestQueueDepthDerivation(t *testing.T) {
	cfg := DefaultConfig()
	// 256MB blocks at 130MB/s ~ 1.97s per block, 1s heartbeat -> depth 2.
	if d := cfg.queueDepth(256*sim.MB, 130*float64(sim.MB)); d != 2 {
		t.Errorf("depth = %d, want 2", d)
	}
	// Tiny blocks: 1s heartbeat covers many blocks.
	if d := cfg.queueDepth(13*sim.MB, 130*float64(sim.MB)); d != 11 {
		t.Errorf("depth = %d, want 11", d)
	}
	cfg.QueueDepth = 5
	if d := cfg.queueDepth(256*sim.MB, 130*float64(sim.MB)); d != 5 {
		t.Errorf("explicit depth = %d, want 5", d)
	}
}

func TestAlgorithm1TargetsAreReplicas(t *testing.T) {
	r := newRig(t, 18, 6, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 50)
	r.c.Migrate(1, []string{"in"}, false)
	b := r.c.binder.(*PolicyBinder)
	b.UpdateTargets()
	for _, bi := range b.pending {
		if !bi.hasTarget {
			t.Fatalf("block %d has no target", bi.id)
		}
		replicas := r.fs.Replicas(bi.id)
		found := false
		for _, loc := range replicas {
			if loc == bi.target {
				found = true
			}
		}
		if !found {
			t.Fatalf("block %d targeted to non-replica %v (replicas %v)",
				bi.id, bi.target, replicas)
		}
	}
	r.c.Shutdown()
}

func TestAlgorithm1SpreadsLoad(t *testing.T) {
	r := newRig(t, 19, 4, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 40)
	r.c.Migrate(1, []string{"in"}, false)
	b := r.c.binder.(*PolicyBinder)
	b.UpdateTargets()
	counts := map[cluster.NodeID]int{}
	for _, bi := range b.pending {
		counts[bi.target]++
	}
	// Homogeneous cluster: greedy earliest-finish assignment must spread
	// targets across all nodes, roughly evenly.
	for n := cluster.NodeID(0); n < 4; n++ {
		if counts[n] < 4 || counts[n] > 17 {
			t.Errorf("node %v targeted %d of 40 blocks: %v", n, counts[n], counts)
		}
	}
	r.c.Shutdown()
}

func TestNaiveBinderAssignsToAnyReplicaHolder(t *testing.T) {
	slowCfg := func(i int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		if i == 0 {
			c.DiskScale = 0.08
		}
		return c
	}
	r := newRig(t, 20, 4, NewNaiveBinder(), slowCfg, DefaultConfig())
	r.mkFile(t, "in", 40)
	r.c.Migrate(1, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(30 * time.Minute))
	if st := r.c.Stats(); st.Migrated != 40 {
		t.Fatalf("migrated = %d", st.Migrated)
	}
	// The naive binder keeps feeding the slow node as long as it has
	// queue space, so it ends up with more work than DYRS would give it.
	if r.c.Slave(0).Migrations == 0 {
		t.Error("naive binder never used the slow node")
	}
	r.c.Shutdown()
}

func TestNoneManager(t *testing.T) {
	var m Manager = None{}
	if err := m.Migrate(1, []string{"x"}, true); err != nil {
		t.Errorf("None.Migrate: %v", err)
	}
	m.Evict(1)
	m.NoteRead(1, 0)
}

func TestPinFiles(t *testing.T) {
	eng := sim.NewEngine(21)
	cl := cluster.New(eng, 4, nil)
	fs := dfs.New(cl, dfs.DefaultConfig())
	fs.CreateFile("in", 4*256*sim.MB)
	n, err := PinFiles(fs, []string{"in"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*256*sim.MB {
		t.Errorf("pinned %d bytes", n)
	}
	if fs.MemReplicaCount() != 4 {
		t.Errorf("in memory = %d", fs.MemReplicaCount())
	}
	if _, err := PinFiles(fs, []string{"missing"}); err == nil {
		t.Error("PinFiles with missing file should error")
	}
}

func TestDoubleMigrateSameFileIsIdempotent(t *testing.T) {
	r := newRig(t, 22, 4, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "in", 4)
	r.c.Migrate(1, []string{"in"}, false)
	r.c.Migrate(2, []string{"in"}, false)
	r.eng.RunUntil(sim.Time(2 * time.Minute))
	st := r.c.Stats()
	if st.Requested != 4 {
		t.Errorf("requested = %d, want 4 (no duplicates)", st.Requested)
	}
	if st.Migrated != 4 {
		t.Errorf("migrated = %d", st.Migrated)
	}
	r.c.Shutdown()
}

func TestBinderNames(t *testing.T) {
	if NewDYRSBinder().Name() != "DYRS" || NewPolicyBinder(policy.NewIgnem()).Name() != "Ignem" || NewNaiveBinder().Name() != "Naive" {
		t.Error("binder names wrong")
	}
}

func TestBlockStateString(t *testing.T) {
	want := map[blockState]string{
		stateNone: "none", statePending: "pending", stateQueued: "queued",
		stateMigrating: "migrating", stateInMemory: "in-memory",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
