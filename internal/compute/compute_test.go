package compute

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
)

type rig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.FS
	c   *migration.Coordinator
	fw  *Framework
}

func newRig(t *testing.T, seed int64, nodes int, binder migration.Binder) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	cl := cluster.New(eng, nodes, nil)
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > nodes {
		fsCfg.Replication = nodes
	}
	fs := dfs.New(cl, fsCfg)
	var mgr migration.Manager = migration.None{}
	var c *migration.Coordinator
	if binder != nil {
		c = migration.NewCoordinator(fs, migration.DefaultConfig(), binder)
		mgr = c
	}
	fw := New(fs, mgr)
	if c != nil {
		c.SetScheduler(fw)
	}
	return &rig{eng: eng, cl: cl, fs: fs, c: c, fw: fw}
}

func basicSpec(files ...string) JobSpec {
	return JobSpec{
		Name:           "test",
		InputFiles:     files,
		MapCPUPerByte:  0.5 / float64(130*sim.MB), // light compute
		MapOutputRatio: 0.1,
		Reducers:       2,
		OutputRatio:    1.0,
	}.DefaultOverheads()
}

func TestJobRunsToCompletion(t *testing.T) {
	r := newRig(t, 1, 4, nil)
	r.fs.CreateFile("in", 4*256*sim.MB)
	j, err := r.fw.Submit(basicSpec("in"))
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if j.State != JobDone {
		t.Fatalf("job state = %v", j.State)
	}
	if len(j.Tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(j.Tasks))
	}
	if j.Finished <= j.MapDone || j.MapDone <= j.FirstTask || j.FirstTask <= j.Submitted {
		t.Errorf("timeline out of order: sub=%v first=%v mapdone=%v fin=%v",
			j.Submitted, j.FirstTask, j.MapDone, j.Finished)
	}
	if j.LeadTime() < 1500*time.Millisecond {
		t.Errorf("lead time %v < platform overhead", j.LeadTime())
	}
	if got := r.fw.Results(); len(got) != 1 || got[0] != j {
		t.Errorf("results wrong: %v", got)
	}
}

func TestSubmitErrors(t *testing.T) {
	r := newRig(t, 2, 4, nil)
	if _, err := r.fw.Submit(basicSpec("missing")); err == nil {
		t.Error("missing input should fail")
	}
	if _, err := r.fw.Submit(basicSpec()); err == nil {
		t.Error("no inputs should fail")
	}
}

func TestMapOnlyJob(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	r.fs.CreateFile("in", 2*256*sim.MB)
	spec := basicSpec("in")
	spec.Reducers = 0
	j, err := r.fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if j.State != JobDone {
		t.Fatal("map-only job did not finish")
	}
	if j.Finished != j.MapDone {
		t.Errorf("map-only job should end at MapDone: %v vs %v", j.Finished, j.MapDone)
	}
}

func TestLocalityPreferred(t *testing.T) {
	r := newRig(t, 4, 7, nil)
	r.fs.CreateFile("in", 8*256*sim.MB)
	j, _ := r.fw.Submit(basicSpec("in"))
	r.eng.Run()
	local := 0
	for _, tr := range j.Tasks {
		if tr.Source == dfs.SourceDiskLocal {
			local++
		}
	}
	// With 7 nodes x 10 slots and only 8 tasks, every task should have
	// found a slot on a replica holder.
	if local != 8 {
		t.Errorf("local reads = %d of 8", local)
	}
}

func TestMigrationAcceleratesJob(t *testing.T) {
	run := func(migrate bool, extraLead time.Duration) sim.Duration {
		binder := migration.Binder(nil)
		if migrate {
			binder = migration.NewDYRSBinder()
		}
		r := newRig(t, 5, 7, binder)
		r.fs.CreateFile("in", 20*256*sim.MB)
		spec := basicSpec("in")
		spec.Migrate = migrate
		spec.ImplicitEvict = migrate
		spec.ExtraLeadTime = extraLead
		j, err := r.fw.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.eng.RunUntil(sim.Time(30 * time.Minute))
		if r.c != nil {
			r.c.Shutdown()
		}
		if j.State != JobDone {
			t.Fatal("job did not finish")
		}
		return j.MapPhase()
	}
	base := run(false, 0)
	// Generous lead time lets DYRS migrate everything before tasks start.
	accel := run(true, 30*time.Second)
	if accel >= base {
		t.Errorf("migration did not speed up map phase: %v vs %v", accel, base)
	}
	if float64(accel) > 0.6*float64(base) {
		t.Errorf("speedup too small: %v vs %v", accel, base)
	}
}

func TestMemoryReadsAfterMigration(t *testing.T) {
	r := newRig(t, 6, 7, migration.NewDYRSBinder())
	r.fs.CreateFile("in", 10*256*sim.MB)
	spec := basicSpec("in")
	spec.Migrate = true
	spec.ImplicitEvict = true
	spec.ExtraLeadTime = 30 * time.Second
	j, _ := r.fw.Submit(spec)
	r.eng.RunUntil(sim.Time(30 * time.Minute))
	r.c.Shutdown()
	mem := 0
	for _, tr := range j.Tasks {
		if tr.Source.FromMemory() {
			mem++
		}
	}
	if mem < 8 {
		t.Errorf("only %d of 10 tasks read from memory", mem)
	}
	// Implicit eviction: after the job, buffers must be empty.
	if r.fs.TotalMemUsed() != 0 {
		t.Errorf("memory not drained after job: %d", r.fs.TotalMemUsed())
	}
	st := r.c.Stats()
	if st.MemoryHits < 8 {
		t.Errorf("memory hits = %d", st.MemoryHits)
	}
}

func TestEvictOnJobCompletion(t *testing.T) {
	r := newRig(t, 7, 7, migration.NewDYRSBinder())
	r.fs.CreateFile("in", 6*256*sim.MB)
	spec := basicSpec("in")
	spec.Migrate = true
	spec.ImplicitEvict = false // explicit mode: eviction happens at job end
	spec.ExtraLeadTime = 30 * time.Second
	r.fw.Submit(spec)
	r.eng.RunUntil(sim.Time(30 * time.Minute))
	r.c.Shutdown()
	if r.fs.TotalMemUsed() != 0 {
		t.Errorf("explicit eviction at job end did not drain memory: %d", r.fs.TotalMemUsed())
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	eng := sim.NewEngine(8)
	cl := cluster.New(eng, 2, func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.TaskSlots = 2
		return c
	})
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 2
	fs := dfs.New(cl, fsCfg)
	fw := New(fs, nil)
	fs.CreateFile("in", 12*256*sim.MB)
	spec := basicSpec("in")
	spec.Reducers = 0
	j, err := fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Sample concurrency: running maps can never exceed 4 total slots.
	for i := 1; i < 200; i++ {
		eng.RunUntil(sim.Time(time.Duration(i) * 500 * time.Millisecond))
		if j.mapsRunning > 4 {
			t.Fatalf("maps running = %d with 4 slots", j.mapsRunning)
		}
		if j.State == JobDone {
			break
		}
	}
	eng.Run()
	if j.State != JobDone {
		t.Fatal("job hung")
	}
}

func TestQueueingCreatesLeadTime(t *testing.T) {
	eng := sim.NewEngine(9)
	cl := cluster.New(eng, 2, func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.TaskSlots = 1
		return c
	})
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 2
	fs := dfs.New(cl, fsCfg)
	fw := New(fs, nil)
	fs.CreateFile("a", 8*256*sim.MB)
	fs.CreateFile("b", 2*256*sim.MB)
	specA := basicSpec("a")
	specA.Reducers = 0
	specB := basicSpec("b")
	specB.Reducers = 0
	ja, _ := fw.Submit(specA)
	jb, _ := fw.Submit(specB)
	eng.Run()
	// Job B queued behind A on a saturated cluster: its lead time must
	// exceed its platform overhead substantially.
	if jb.LeadTime() < 2*specB.PlatformOverhead {
		t.Errorf("queued job lead time = %v, expected queueing delay", jb.LeadTime())
	}
	if ja.State != JobDone || jb.State != JobDone {
		t.Error("jobs did not finish")
	}
}

func TestSubmitAt(t *testing.T) {
	r := newRig(t, 10, 4, nil)
	r.fs.CreateFile("in", 256*sim.MB)
	var j *Job
	r.fw.SubmitAt(sim.Time(5*time.Second), basicSpec("in"), func(job *Job, err error) {
		if err != nil {
			t.Error(err)
		}
		j = job
	})
	r.eng.Run()
	if j == nil || j.Submitted != sim.Time(5*time.Second) {
		t.Fatalf("SubmitAt wrong: %+v", j)
	}
}

func TestJobActiveChecker(t *testing.T) {
	r := newRig(t, 11, 4, nil)
	r.fs.CreateFile("in", 256*sim.MB)
	j, _ := r.fw.Submit(basicSpec("in"))
	if !r.fw.JobActive(j.ID) {
		t.Error("running job reported inactive")
	}
	for _, id := range []migration.JobID{0, -1, 999, 1 << 30} {
		if r.fw.JobActive(id) || r.fw.Job(id) != nil {
			t.Errorf("unknown job %d reported", id)
		}
	}
	r.eng.Run()
	if r.fw.JobActive(j.ID) {
		t.Error("finished job reported active")
	}
}

func TestOnJobDoneCallback(t *testing.T) {
	r := newRig(t, 12, 4, nil)
	r.fs.CreateFile("in", 256*sim.MB)
	var got *Job
	r.fw.OnJobDone(func(j *Job) { got = j })
	j, _ := r.fw.Submit(basicSpec("in"))
	r.eng.Run()
	if got != j {
		t.Error("completion callback not invoked")
	}
}

func TestConcurrentJobsAllFinish(t *testing.T) {
	r := newRig(t, 13, 7, migration.NewDYRSBinder())
	r.fw = New(r.fs, r.c)
	r.c.SetScheduler(r.fw)
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		r.fs.CreateFile(name, sim.Bytes(1+i)*256*sim.MB)
		spec := basicSpec(name)
		spec.Migrate = true
		spec.ImplicitEvict = true
		r.fw.SubmitAt(sim.Time(time.Duration(i)*2*time.Second), spec, nil)
	}
	r.eng.RunUntil(sim.Time(30 * time.Minute))
	if len(r.fw.Results()) != 6 {
		t.Fatalf("finished %d of 6 jobs", len(r.fw.Results()))
	}
	if r.fs.TotalMemUsed() != 0 {
		t.Errorf("memory leaked: %d bytes", r.fs.TotalMemUsed())
	}
	r.c.Shutdown()
}

func TestTaskResultAccessors(t *testing.T) {
	tr := TaskResult{
		Started:  sim.Time(1 * time.Second),
		ReadDone: sim.Time(3 * time.Second),
		Finished: sim.Time(4 * time.Second),
	}
	if tr.Duration() != 3*time.Second || tr.ReadTime() != 2*time.Second {
		t.Errorf("accessors wrong: %v %v", tr.Duration(), tr.ReadTime())
	}
}

func TestDelaySchedulingWaitsForLocality(t *testing.T) {
	// One node holds all replicas (replication 1) and is fully busy; a
	// new task must wait out the locality delay before going remote.
	eng := sim.NewEngine(20)
	cl := cluster.New(eng, 2, func(i int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.TaskSlots = 2
		return c
	})
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 1
	fs := dfs.New(cl, fsCfg)
	fw := New(fs, nil)
	// Two big files hog the replica-holder's slots, then a third task
	// must choose: wait for locality or run remotely.
	fs.CreateFile("a", 3*256*sim.MB)
	spec := JobSpec{
		Name:          "delay",
		InputFiles:    []string{"a"},
		MapCPUPerByte: 6.0 / float64(256*sim.MB), // long compute holds slots
		Reducers:      0,
	}.DefaultOverheads()
	j, err := fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(time.Hour))
	if j.State != JobDone {
		t.Fatal("job hung")
	}
	// With 3 blocks all on one 2-slot node, the third task waited; after
	// the delay it may have gone remote. Either way, at least two tasks
	// must have read disk-locally.
	local := 0
	for _, tr := range j.Tasks {
		if tr.Source == dfs.SourceDiskLocal {
			local++
		}
	}
	if local < 2 {
		t.Errorf("local reads = %d, delay scheduling not effective", local)
	}
}

func TestSchedulerHintsReachMigration(t *testing.T) {
	eng := sim.NewEngine(21)
	cl := cluster.New(eng, 4, nil)
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 3
	fs := dfs.New(cl, fsCfg)
	mcfg := migration.DefaultConfig()
	mcfg.Order = migration.OrderEDF
	coord := migration.NewCoordinator(fs, mcfg, migration.NewDYRSBinder())
	defer coord.Shutdown()
	fw := New(fs, coord)
	coord.SetScheduler(fw)
	fs.CreateFile("in", 512*sim.MB)
	spec := basicSpec("in")
	spec.Migrate = true
	spec.ExtraLeadTime = 7 * time.Second
	j, err := fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The submitter must have passed a hint with the expected start.
	eng.RunUntil(sim.Time(time.Minute))
	if j.State != JobDone {
		t.Fatal("job hung")
	}
}

// TestSubmitDuplicateInputCompletes: a job that lists the same file
// twice reads every block twice and finishes, with or without migration.
// The migration case must also drain: after the job's eviction and
// Shutdown no block is left pending, queued, migrating or in memory.
func TestSubmitDuplicateInputCompletes(t *testing.T) {
	for _, migrate := range []bool{false, true} {
		var binder migration.Binder
		if migrate {
			binder = migration.NewDYRSBinder()
		}
		r := newRig(t, 23, 7, binder)
		r.fs.CreateFile("in", 4*256*sim.MB)
		spec := basicSpec("in", "in")
		spec.Migrate = migrate
		j, err := r.fw.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.eng.RunUntil(sim.Time(time.Hour))
		if r.c != nil {
			r.c.Shutdown()
		}
		if j.State != JobDone {
			t.Fatalf("migrate=%v: job state %v with %d of %d maps done", migrate, j.State, j.mapsDone, j.totalMaps)
		}
		if j.totalMaps != 8 || len(j.Tasks) != 8 {
			t.Errorf("migrate=%v: %d tasks of %d maps, want 8 of 8", migrate, len(j.Tasks), j.totalMaps)
		}
		if r.c != nil {
			if p, q, m, in := r.c.StateCounts(); p+q+m+in != 0 {
				t.Errorf("migration did not drain: pending %d queued %d migrating %d in-memory %d", p, q, m, in)
			}
		}
	}
}
