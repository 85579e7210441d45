// Benchmarks: ablations of DYRS's design decisions and extension studies
// that no registered experiment runs, per-layer microbenchmarks, and the
// datacenter-scale macro presets. Run with
//
//	go test -run '^$' -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/dyrs-bench
// (`dyrs-bench -only fig4`), not here. An ablation or extension
// iteration performs a complete study in virtual time and prints its
// result once via b.Log at -v; ns/op measures simulation cost, not
// cluster time. CI gates the microbenchmarks and macro presets with
// cmd/dyrs-benchgate against BENCH_BASELINE.json.
package dyrs_test

import (
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

const benchSeed = 42

// --- Ablations of DYRS design decisions (DESIGN.md §4) ---

// ablationSort runs a 20GB DYRS sort under a modified migration config
// and returns the job duration in seconds. The scenario is deliberately
// tight — short lead-time and alternating interference on two nodes — so
// the design knobs under study actually bind: migration overlaps the map
// phase and residual bandwidth keeps shifting.
func ablationSort(b *testing.B, mutate func(*migration.Config)) float64 {
	b.Helper()
	opt := experiments.DefaultOptions(benchSeed)
	mcfg := migration.DefaultConfig()
	if mutate != nil {
		mutate(&mcfg)
	}
	opt.MigrationConfig = &mcfg
	env := experiments.NewEnv(experiments.DYRS, opt)
	defer env.Close()
	a := cluster.StartAlternating(env.Eng, env.Cl.Node(0), 2, 2.5, 10*time.Second, true)
	defer a.Stop()
	bb := cluster.StartAlternating(env.Eng, env.Cl.Node(1), 2, 2.5, 15*time.Second, false)
	defer bb.Stop()
	if err := env.WarmupEstimates(); err != nil {
		b.Fatal(err)
	}
	if err := env.CreateInput("sort-input", 20*sim.GB); err != nil {
		b.Fatal(err)
	}
	spec := env.Prepare(workload.SortSpec("sort-input", 14, true))
	spec.ExtraLeadTime = 5 * time.Second
	j, err := env.FW.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := env.WaitJob(j, time.Hour); err != nil {
		b.Fatal(err)
	}
	return j.Duration().Seconds()
}

// estimateReactionLag measures how long the migration-time estimate takes
// to triple after residual bandwidth suddenly drops — the quantity the
// §IV-A in-progress update exists to improve. It runs a steady stream of
// migrations on one node and switches heavy interference on mid-run.
func estimateReactionLag(b *testing.B, disableUpdates bool) float64 {
	b.Helper()
	eng := sim.NewEngine(benchSeed)
	cl := cluster.New(eng, 2, nil)
	fsCfg := dfs.DefaultConfig()
	fsCfg.Replication = 1
	fs := dfs.New(cl, fsCfg)
	mcfg := migration.DefaultConfig()
	mcfg.DisableInProgressUpdates = disableUpdates
	c := migration.NewCoordinator(fs, mcfg, migration.NewDYRSBinder())
	defer c.Shutdown()
	if _, err := fs.CreateFile("stream", 40*sim.GB); err != nil {
		b.Fatal(err)
	}
	if err := c.Migrate(1, []string{"stream"}, false); err != nil {
		b.Fatal(err)
	}
	const onset = 30.0
	node0 := cl.Node(0)
	eng.Schedule(time.Duration(onset*float64(time.Second)), func() {
		node0.StartInterference(8, 2)
	})
	eng.RunUntil(sim.Time(3 * time.Minute))
	baseline := 256 * float64(sim.MB) / node0.Cfg.DiskBandwidth
	for _, p := range c.EstimateSeries(0).Points() {
		if p.T > onset && p.V > 3*baseline {
			return p.T - onset
		}
	}
	return -1 // never reacted within the horizon
}

func BenchmarkAblationInProgressUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := estimateReactionLag(b, false)
		without := estimateReactionLag(b, true)
		if with < 0 || (without >= 0 && with >= without) {
			b.Fatalf("in-progress updates did not speed up estimate reaction: %.1fs vs %.1fs", with, without)
		}
		if i == 0 {
			b.Logf("estimate reaction lag after bandwidth drop: with in-progress updates %.1fs; completion-only %.1fs", with, without)
		}
	}
}

func BenchmarkAblationQueueDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{1, 2, 4, 16} {
			depth := depth
			d := ablationSort(b, func(c *migration.Config) { c.QueueDepth = depth })
			if i == 0 {
				b.Logf("queue depth %2d: sort %.1fs", depth, d)
			}
		}
	}
}

func BenchmarkAblationIOWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{0.1, 0.25, 1.0} {
			w := w
			d := ablationSort(b, func(c *migration.Config) { c.IOWeight = w })
			if i == 0 {
				b.Logf("migration IO weight %.2f: sort %.1fs", w, d)
			}
		}
	}
}

func BenchmarkAblationBindingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := map[experiments.Policy]float64{}
		for _, p := range []experiments.Policy{experiments.DYRS, experiments.Naive, experiments.Ignem, experiments.HDFS} {
			env := experiments.NewEnv(p, experiments.DefaultOptions(benchSeed))
			stop := env.SlowNodeInterference(0)
			if err := env.WarmupEstimates(); err != nil {
				b.Fatal(err)
			}
			if err := env.CreateInput("sort-input", 20*sim.GB); err != nil {
				b.Fatal(err)
			}
			spec := env.Prepare(workload.SortSpec("sort-input", 14, p.Migrates()))
			spec.ExtraLeadTime = 20 * time.Second
			j, err := env.FW.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if err := env.WaitJob(j, time.Hour); err != nil {
				b.Fatal(err)
			}
			res[p] = j.Duration().Seconds()
			stop()
			env.Close()
		}
		if i == 0 {
			b.Logf("binding policy sort durations: %v", res)
		}
	}
}

// --- Microbenchmarks of the substrate ---

// benchEngineEvents measures the event-queue hot path: each iteration
// schedules a batch of 64 timers, cancels half of them (the Resource
// rebalance pattern), and drains the queue — so the drain is inside the
// measured region and ns/op covers the full schedule → cancel → fire
// lifecycle. With traced set, a trace.Tracer is attached, pinning the
// cost of the observability layer on this path (it must be nil-check
// noise: the engine never consults the tracer while firing events).
func benchEngineEvents(b *testing.B, traced bool) {
	eng := sim.NewEngine(1)
	if traced {
		trace.New(eng)
	}
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var evs [64]*sim.Event
		for j := range evs {
			evs[j] = eng.Schedule(time.Duration(j%16)*time.Millisecond, nop)
		}
		for j := 0; j < len(evs); j += 2 {
			eng.Cancel(evs[j])
		}
		eng.Run()
	}
}

func BenchmarkSimEngineEvents(b *testing.B)       { benchEngineEvents(b, false) }
func BenchmarkSimEngineEventsTraced(b *testing.B) { benchEngineEvents(b, true) }

// newDeepQueue builds the queue shape of the datacenter-scale runs, which
// BenchmarkSimEngineEvents' 64-event queue cannot show: 2^18 events
// pre-scheduled far beyond any benchmark's horizon, under 1,000
// ten-second Tickers (heartbeats) whose phases sit 10 ms apart, so every
// 10 ms of virtual time fires exactly one tick. The clock is left at
// 70 s, just past 2^36 ns: the first time the clock crosses a multiple
// of a new power of two, the ticks beyond it collect in a queue level
// never filled before, which allocates its array once; the next such
// crossing is at 2^37 ns (137 s).
func newDeepQueue() *sim.Engine {
	eng := sim.NewEngine(1)
	nop := func() {}
	const far = sim.Time(1 << 55) // ~417 days
	for i := 0; i < 1<<18; i++ {
		eng.At(far+sim.Time(eng.Rand().Int63n(1<<50)), nop)
	}
	for i := 0; i < 1000; i++ {
		sim.NewTicker(eng, 10*time.Second, nop)
		eng.RunFor(10 * time.Millisecond)
	}
	eng.RunUntil(sim.Time(70 * time.Second))
	return eng
}

// BenchmarkEngineDeepQueue measures one heartbeat tick — pop, fire,
// reschedule — in a queue 2^18 events deep.
func BenchmarkEngineDeepQueue(b *testing.B) {
	eng := newDeepQueue()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(10 * time.Millisecond)
	}
}

// TestEngineDeepQueueAllocs pins BenchmarkEngineDeepQueue's steady state
// at zero allocations: 2,000 ticks, two full rounds, allocate nothing
// (after AllocsPerRun's warm-up call, another 2,000).
func TestEngineDeepQueueAllocs(t *testing.T) {
	eng := newDeepQueue()
	before := eng.EventsFired()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			eng.RunFor(10 * time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Errorf("2,000 ticks over a 2^18-deep queue allocated %.0f objects, want 0", allocs)
	}
	if fired := eng.EventsFired() - before; fired != 4000 {
		t.Errorf("fired %d ticks, want 4000", fired)
	}
}

// benchResourceFlows measures the fluid-flow hot path: each iteration
// admits 32 concurrent flows on one disk (every admission rebalances all
// active flows) and runs them to completion inside the measured region.
// The traced variant exercises the FlowSink callbacks on every start and
// completion, whose per-resource counter cells keep the overhead to a
// few increments and no allocations.
func benchResourceFlows(b *testing.B, traced bool) {
	eng := sim.NewEngine(1)
	if traced {
		trace.New(eng)
	}
	r := sim.NewResource(eng, "disk", 130*float64(sim.MB), sim.SeekEfficiency(0.05))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			r.Start(256*sim.MB, nil)
		}
		eng.Run()
	}
}

func BenchmarkResourceFlows(b *testing.B)       { benchResourceFlows(b, false) }
func BenchmarkResourceFlowsTraced(b *testing.B) { benchResourceFlows(b, true) }

// BenchmarkResourceChurn measures high fan-in add/cancel churn at a
// single NIC: 1k concurrent flows stay resident while batches of short
// flows are admitted and half of them cancelled mid-flight — the
// serving-workload pattern where hot-block reads funnel through one
// replica holder. The virtual-service-time core keeps each admission
// and indexed removal O(log n) instead of rescanning the resident set.
func BenchmarkResourceChurn(b *testing.B) {
	eng := sim.NewEngine(1)
	r := sim.NewResource(eng, "nic", 1250*float64(sim.MB), nil)
	resident := make([]*sim.Flow, 1000)
	for i := range resident {
		resident[i] = r.StartLoad(1)
	}
	eng.RunFor(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch [64]*sim.Flow
		for j := range batch {
			batch[j] = r.Start(sim.MB, nil)
		}
		eng.RunFor(time.Millisecond)
		for j := 0; j < len(batch); j += 2 {
			batch[j].Cancel()
		}
		eng.RunFor(500 * time.Millisecond) // drain the surviving half
	}
	b.StopTimer()
	for _, f := range resident {
		f.Cancel()
	}
}

// BenchmarkResourceCascade measures the same-instant completion storm:
// 512 identical flows admitted at one instant share one finish tag and
// all ripen in a single cascade. The finish-tag heap pops each in
// O(log n); the pre-rewrite model rescanned the flow list per
// completion, making this quadratic.
func BenchmarkResourceCascade(b *testing.B) {
	eng := sim.NewEngine(1)
	r := sim.NewResource(eng, "disk", 130*float64(sim.MB), nil)
	cascade := func() {
		for j := 0; j < 512; j++ {
			r.Start(16*sim.MB, nil)
		}
		eng.Run()
	}
	cascade() // fill the flow pool and heaps outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cascade()
	}
}

// TestScheduleHotPathAllocs pins the engine's steady-state allocation
// behaviour: once the event pool and heap are warm, scheduling, cancelling
// and firing events allocates nothing.
func TestScheduleHotPathAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	nop := func() {}
	for i := 0; i < 128; i++ {
		eng.Schedule(time.Millisecond, nop)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		ev := eng.Schedule(time.Second, nop)
		eng.Cancel(ev)
		eng.Schedule(time.Millisecond, nop)
		eng.Run()
	})
	if avg != 0 {
		t.Errorf("engine schedule/cancel/fire hot path allocates %.2f objects/op, want 0", avg)
	}
}

// TestStartHotPathAllocs pins the resource admission hot path at zero
// allocations: in steady state a Start → complete cycle reuses a pooled
// Flow struct, the completion timer and flush event come from the
// engine's event pool, and every closure (timer, flush) was bound once
// at construction.
func TestStartHotPathAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	r := sim.NewResource(eng, "disk", 130*float64(sim.MB), sim.SeekEfficiency(0.05))
	for i := 0; i < 64; i++ {
		r.Start(sim.MB, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		r.Start(sim.MB, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Errorf("Start hot path allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkDFSRead measures the dfs read path — replica choice, the
// read hook, the latency timer, the transfer legs and the result — one
// read per op, cycling through the four sources: disk-local,
// cross-rack disk-remote (through the core switch), mem-local and
// mem-remote. Steady state allocates nothing (internal/dfs
// TestReadBlockAllocs).
func BenchmarkDFSRead(b *testing.B) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 12, nil)
	cl.ConfigureRacks(4, 1250*float64(sim.MB))
	fs := dfs.New(cl, dfs.DefaultConfig())
	type read struct {
		at cluster.NodeID
		id dfs.BlockID
	}
	var reads [4]read
	for src := dfs.SourceDiskLocal; src <= dfs.SourceMemRemote; src++ {
		f, err := fs.CreateFile(src.String(), 256*sim.MB)
		if err != nil {
			b.Fatal(err)
		}
		id := f.Blocks[0]
		reps := fs.Replicas(id)
		at := reps[0]
		if src == dfs.SourceDiskRemote || src == dfs.SourceMemRemote {
			// A reader on a rack holding no replica.
			for n := cluster.NodeID(0); int(n) < cl.Size(); n++ {
				free := true
				for _, r := range reps {
					free = free && !cl.SameRack(n, r)
				}
				if free {
					at = n
					break
				}
			}
		}
		if src.FromMemory() {
			fs.RegisterMem(id, reps[0])
		}
		reads[src] = read{at, id}
	}
	done := func(dfs.ReadResult) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reads[i%len(reads)]
		if err := fs.ReadBlock(r.at, r.id, done); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkDFSWriteBlocks measures one replicated block write on a
// 500-node, 20-rack cluster: pipeline target choice (a permutation of
// the alive nodes per block), the pipeline legs and the transfer.
func BenchmarkDFSWriteBlocks(b *testing.B) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 500, nil)
	cl.ConfigureRacks(20, 100*1250*float64(sim.MB))
	fs := dfs.New(cl, dfs.DefaultConfig())
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.WriteBlocks(cluster.NodeID(i%500), 256*sim.MB, 3, done)
		eng.Run()
	}
}

// BenchmarkAlgorithm1UpdateTargets measures the master's target-update
// pass (§III-D): the paper reports updating 50GB of pending migrations
// in under a millisecond. Nothing changes between calls, so the
// input-change gate skips eight passes in nine, as on an idle master's
// ticker. Steady state allocates nothing (internal/migration
// TestUpdateTargetsAllocs).
func BenchmarkAlgorithm1UpdateTargets(b *testing.B) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 7, nil)
	fs := dfs.New(cl, dfs.DefaultConfig())
	binder := migration.NewDYRSBinder()
	c := migration.NewCoordinator(fs, migration.DefaultConfig(), binder)
	defer c.Shutdown()
	if _, err := fs.CreateFile("big", 50*sim.GB); err != nil {
		b.Fatal(err)
	}
	if err := c.Migrate(1, []string{"big"}, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binder.UpdateTargets()
	}
	if binder.PendingCount() == 0 {
		b.Fatal("pending list drained unexpectedly")
	}
}

func BenchmarkExtensionSpeculationVsMigration(b *testing.B) {
	// Speculative execution treats straggler symptoms; DYRS removes one
	// of their causes (slow cold reads). With migration on, far fewer
	// speculative copies launch.
	run := func(policy experiments.Policy) (float64, int) {
		opt := experiments.DefaultOptions(benchSeed)
		opt.SlowNodes = map[int]float64{0: 0.05}
		env := experiments.NewEnv(policy, opt)
		defer env.Close()
		env.FW.EnableSpeculation(compute.DefaultSpeculation())
		defer env.FW.StopSpeculation()
		if err := env.WarmupEstimates(); err != nil {
			b.Fatal(err)
		}
		if err := env.CreateInput("in", 10*sim.GB); err != nil {
			b.Fatal(err)
		}
		spec := env.Prepare(workload.SortSpec("in", 8, policy.Migrates()))
		spec.ExtraLeadTime = 20 * time.Second
		j, err := env.FW.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.WaitJob(j, time.Hour); err != nil {
			b.Fatal(err)
		}
		return j.MapPhase().Seconds(), j.SpeculativeLaunched
	}
	for i := 0; i < b.N; i++ {
		hdfsMap, hdfsSpec := run(experiments.HDFS)
		dyrsMap, dyrsSpec := run(experiments.DYRS)
		if i == 0 {
			b.Logf("HDFS+speculation: map %.1fs, %d speculative copies; DYRS+speculation: map %.1fs, %d copies",
				hdfsMap, hdfsSpec, dyrsMap, dyrsSpec)
		}
	}
}

func BenchmarkExtensionAqueductRateControl(b *testing.B) {
	// Aqueduct-style adaptive migration priority (§VI related work):
	// compare a foreground job's duration with full-priority migration
	// vs the AIMD rate controller, while a large background migration
	// runs concurrently.
	run := func(adaptive bool) (fg float64, migrated sim.Bytes) {
		opt := experiments.DefaultOptions(benchSeed)
		mcfg := migration.DefaultConfig()
		mcfg.IOWeight = 1.0 // start at full priority either way
		opt.MigrationConfig = &mcfg
		env := experiments.NewEnv(experiments.DYRS, opt)
		defer env.Close()
		var rc *migration.RateController
		if adaptive {
			rc = migration.NewRateController(env.Coord, time.Second)
			defer rc.Stop()
		}
		// Big background migration request (no job attached to it yet).
		if err := env.CreateInput("background", 60*sim.GB); err != nil {
			b.Fatal(err)
		}
		if err := env.Coord.Migrate(1000, []string{"background"}, false); err != nil {
			b.Fatal(err)
		}
		// Foreground job arrives shortly after and reads cold data.
		if err := env.CreateInput("foreground", 6*sim.GB); err != nil {
			b.Fatal(err)
		}
		spec := env.Prepare(workload.SortSpec("foreground", 8, false))
		spec.Migrate = false // pure foreground victim
		var fgJob *compute.Job
		env.FW.SubmitAt(sim.Time(5*time.Second), spec, func(j *compute.Job, err error) {
			if err != nil {
				b.Error(err)
			}
			fgJob = j
		})
		env.Eng.RunUntil(sim.Time(10 * time.Minute))
		if fgJob == nil || fgJob.State != compute.JobDone {
			b.Fatal("foreground job did not finish")
		}
		return fgJob.Duration().Seconds(), env.Coord.Stats().BytesMigrated
	}
	for i := 0; i < b.N; i++ {
		fgStatic, migStatic := run(false)
		fgAdaptive, migAdaptive := run(true)
		if i == 0 {
			b.Logf("foreground job: %.1fs with full-priority migration (%.1fGB migrated) vs %.1fs with AIMD control (%.1fGB migrated)",
				fgStatic, float64(migStatic)/float64(sim.GB),
				fgAdaptive, float64(migAdaptive)/float64(sim.GB))
		}
	}
}

func BenchmarkAblationMemoryLimit(b *testing.B) {
	// The §IV-A1 hard memory limit: sweep the buffer budget and watch
	// migration throttle gracefully instead of failing.
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.002, 0.01, 0.05, 1.0} {
			frac := frac
			opt := experiments.DefaultOptions(benchSeed)
			mcfg := migration.DefaultConfig()
			mcfg.MemLimitFraction = frac
			opt.MigrationConfig = &mcfg
			env := experiments.NewEnv(experiments.DYRS, opt)
			if err := env.CreateInput("in", 20*sim.GB); err != nil {
				b.Fatal(err)
			}
			spec := env.Prepare(workload.SortSpec("in", 8, true))
			spec.ExtraLeadTime = 25 * time.Second
			j, err := env.FW.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			if err := env.WaitJob(j, time.Hour); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				st := env.Coord.Stats()
				b.Logf("mem limit %5.1fGB/node: sort %.1fs, migrated %d, blocked-on-memory events on node0: %d",
					frac*64, j.Duration().Seconds(), st.Migrated,
					env.Coord.Slave(0).BlockedOnMemory)
			}
			env.Close()
		}
	}
}

func BenchmarkExtensionFairScheduler(b *testing.B) {
	// Cross-job scheduling policy under a SWIM prefix: fair sharing
	// keeps small jobs from queueing behind large ones, which also
	// spreads lead-time differently for migration.
	run := func(fair bool) float64 {
		env := experiments.NewEnv(experiments.DYRS, experiments.DefaultOptions(benchSeed))
		defer env.Close()
		if fair {
			env.FW.SetSchedPolicy(compute.SchedFair)
		}
		cfg := workload.DefaultSWIMConfig()
		cfg.Jobs = 60
		cfg.TotalInput = 50 * sim.GB
		trace := workload.GenerateSWIM(env.Eng.Rand(), cfg)
		for _, j := range trace {
			if err := env.CreateInput(j.FileName(), j.InputSize); err != nil {
				b.Fatal(err)
			}
		}
		for _, j := range trace {
			env.FW.SubmitAt(sim.Time(j.Arrival/4), env.Prepare(j.Spec(true)), nil)
		}
		if err := env.WaitJobs(len(trace), 4*time.Hour); err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, j := range env.FW.Results() {
			sum += j.Duration().Seconds()
		}
		return sum / float64(len(env.FW.Results()))
	}
	for i := 0; i < b.N; i++ {
		fifo := run(false)
		fair := run(true)
		if i == 0 {
			b.Logf("mean job duration: FIFO %.1fs, fair %.1fs", fifo, fair)
		}
	}
}

// --- Datacenter-scale macro-benchmarks ---

// benchScale runs one datacenter-scale preset per iteration and reports
// simulated events per wall-clock second alongside the usual ns/op and
// -benchmem columns. Run with -benchtime 1x: a single iteration is a
// complete days-long virtual-time run, so op counts beyond 1 only repeat
// identical work. At one iteration CI gates the macro presets on
// allocs/op and B/op only, which repeat run to run; their wall time
// moves with host contention, and benchmark/ measures it with spread.
func benchScale(b *testing.B, opts experiments.ScaleOptions) {
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunScale(opts)
		if err != nil {
			b.Fatal(err)
		}
		events += row.EventsFired
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

func BenchmarkScale100(b *testing.B) { benchScale(b, experiments.Scale100Options(benchSeed)) }

func BenchmarkScale1k(b *testing.B) { benchScale(b, experiments.Scale1kOptions(benchSeed)) }

// BenchmarkScale1kSampled is BenchmarkScale1k with the deterministic
// 1-in-64 trace sampler attached — the configuration a 10k-node run
// would ship with. Its gated allocs/op and B/op keep the observability
// tax from growing unnoticed.
func BenchmarkScale1kSampled(b *testing.B) {
	opts := experiments.Scale1kOptions(benchSeed)
	opts.SampleEvery = 64
	benchScale(b, opts)
}

func BenchmarkScale10k(b *testing.B) {
	if testing.Short() {
		b.Skip("scale10k runs ~10^8 events per iteration; skipped under -short")
	}
	benchScale(b, experiments.Scale10kOptions(benchSeed))
}

// --- Sharded-engine macro-benchmark ---

// BenchmarkScale1kShards1 runs the scaleshard1k preset on the sharded
// engine with one execution worker and reports events/sec. Worker
// scaling is measured by benchmark/'s sharded workload (shard.speedup),
// not here.
func BenchmarkScale1kShards1(b *testing.B) {
	opts := experiments.ScaleShard1kOptions(benchSeed)
	opts.Workers = 1
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunScaleShard(opts)
		if err != nil {
			b.Fatal(err)
		}
		events += row.EventsFired
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(events)/secs, "events/sec")
	}
}

// --- Serving macro-benchmark ---

// BenchmarkServing1k drives the multi-tenant serving workload on the
// 1,000-node preset: ~100k open-loop Zipf/diurnal block reads through
// the coordinated cache with DYRS epoch prefetch. Run with -benchtime
// 1x — one iteration is a complete 20-minute virtual serving day.
func BenchmarkServing1k(b *testing.B) {
	b.ReportAllocs()
	opt := experiments.Serving1kOptions(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunServing(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 1 || rep.Rows[0].Served == 0 {
			b.Fatal("serving benchmark produced no scorecard")
		}
	}
}
