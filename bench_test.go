// Benchmarks: ablations of DYRS's design decisions that no registered
// experiment runs, per-layer microbenchmarks, and the datacenter-scale
// macro presets. Run with
//
//	go test -run '^$' -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/dyrs-bench
// (`dyrs-bench -only fig4`), not here. An ablation iteration performs
// a complete study in virtual time and prints its result once via
// b.Log at -v; ns/op measures simulation cost, not
// cluster time. CI gates the microbenchmarks and macro presets with
// cmd/dyrs-benchgate against BENCH_BASELINE.json.
package dyrs_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/metrics"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
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
	j, err := env.RunSort(20*sim.GB, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	return j.Duration().Seconds()
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
			j, err := env.RunSort(20*sim.GB, 20*time.Second)
			if err != nil {
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
// never filled before, which may take a chunk the queue's free list
// lacks; the next such crossing is at 2^37 ns (137 s).
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

// BenchmarkEngineFill fills an engine with 2^18 events at random
// instants within an hour and drains it: B/op is the queue's memory for
// that many events plus the Events themselves, ns/op the pushes and the
// bucket moves of the drain.
func BenchmarkEngineFill(b *testing.B) {
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		for j := 0; j < 1<<18; j++ {
			eng.At(sim.Time(eng.Rand().Int63n(int64(time.Hour))), nop)
		}
		eng.Run()
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

// BenchmarkDFSWriteBlocks measures one single-replica block write on a
// 500-node, 20-rack cluster: the pooled op and the block's transfer onto
// the writer's disk.
func BenchmarkDFSWriteBlocks(b *testing.B) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 500, nil)
	cl.ConfigureRacks(20, 100*1250*float64(sim.MB))
	fs := dfs.New(cl, dfs.DefaultConfig())
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.WriteBlocks(cluster.NodeID(i%500), 256*sim.MB, done)
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

// newBusyMaster builds a 500-node DYRS coordinator whose slaves migrate
// at 1 MB/s, so a 128 MB transfer outlasts any benchmark run, and
// requests a 300-block file: after the first RPC about 300 slaves hold
// a running transfer, most of them a queued block too, and a few blocks
// stay pending in pull buckets. It returns the engine, the coordinator
// and the name of a one-block file for the measured Migrate.
func newBusyMaster(tb testing.TB) (*sim.Engine, *migration.Coordinator, string) {
	tb.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 500, func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.DiskBandwidth = float64(sim.MB)
		return c
	})
	fs := dfs.New(cl, dfs.DefaultConfig())
	c := migration.NewCoordinator(fs, migration.DefaultConfig(), migration.NewDYRSBinder())
	tb.Cleanup(c.Shutdown)
	for _, f := range []struct {
		name   string
		blocks sim.Bytes
	}{{"busy", 300}, {"one", 1}} {
		if _, err := fs.CreateFile(f.name, f.blocks*fs.Config().BlockSize); err != nil {
			tb.Fatal(err)
		}
	}
	eng.RunFor(3 * time.Second)
	if err := c.Migrate(1, []string{"busy"}, false); err != nil {
		tb.Fatal(err)
	}
	eng.RunFor(time.Second)
	return eng, c, "one"
}

// BenchmarkMigrateRPC measures one Migrate of a one-block file on a
// busy 500-node master (newBusyMaster): the Algorithm 1 pass over the
// pending blocks, and the RPC that has the slaves pull and start work.
// The job is evicted after each Migrate, which aborts the transfer the
// RPC started or drops the block, so every iteration starts from the
// same state.
func BenchmarkMigrateRPC(b *testing.B) {
	eng, c, one := newBusyMaster(b)
	files := []string{one}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Migrate(2, files, false); err != nil {
			b.Fatal(err)
		}
		eng.RunFor(cluster.RPCLatency)
		c.Evict(2)
	}
}

// newIdleFleet builds a 1,000-slave migration coordinator (naive
// binder), recording each slave's estimate series or not, and runs it
// for 3,000 s of virtual time. An idle fleet has nothing requested, so
// after the first round every slave sleeps. A busy one has every
// node's buffer smaller than a block and 10 single-block files, one
// replica each on 10 distinct nodes, requested at the start: the 10
// slaves holding them stay awake with their block queued, blocked on
// memory, and tick every round. The first time the clock crosses a
// multiple of a new power of two, the heartbeat lands in a radix-queue
// level never filled before, which allocates its array once; the last
// such crossing was at 2^41 ns (2,199 s) and the next is at 2^42 ns
// (4,398 s). Each series then holds 3,000 samples, so the next 100
// rounds take it past 3,072 = 3·1,024: a series that grew in
// 1,024-sample chunks would allocate there. It returns the engine, the
// coordinator, the busy slaves and the heartbeat interval.
func newIdleFleet(tb testing.TB, series, busy bool) (*sim.Engine, *migration.Coordinator, []cluster.NodeID, time.Duration) {
	tb.Helper()
	eng := sim.NewEngine(1)
	var nodeCfg func(int) cluster.NodeConfig
	fsCfg := dfs.DefaultConfig()
	if busy {
		nodeCfg = func(int) cluster.NodeConfig {
			c := cluster.DefaultNodeConfig()
			c.MemCapacity = sim.MB
			return c
		}
		fsCfg.Replication = 1
	}
	cl := cluster.New(eng, 1000, nodeCfg)
	fs := dfs.New(cl, fsCfg)
	cfg := migration.DefaultConfig()
	cfg.DisableEstimateSeries = !series
	c := migration.NewCoordinator(fs, cfg, migration.NewNaiveBinder())
	tb.Cleanup(c.Shutdown)
	var held []cluster.NodeID
	if busy {
		var files []string
		seen := map[cluster.NodeID]bool{}
		for i := 0; len(files) < 10; i++ {
			name := fmt.Sprintf("f%d", i)
			f, err := fs.CreateFile(name, fsCfg.BlockSize)
			if err != nil {
				tb.Fatal(err)
			}
			if n := fs.Replicas(f.Blocks[0])[0]; !seen[n] {
				seen[n] = true
				held = append(held, n)
				files = append(files, name)
			}
		}
		if err := c.Migrate(1, files, false); err != nil {
			tb.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(3000 * time.Second))
	for _, n := range held {
		if c.Slave(n).BlockedOnMemory == 0 {
			tb.Fatalf("slave %v is not blocked on memory", n)
		}
	}
	return eng, c, held, cfg.Heartbeat
}

// fleetCases names the heartbeat-round cases: an idle fleet without
// and with the per-slave estimate series of Fig 9, and a fleet with 10
// busy slaves.
var fleetCases = []struct {
	name         string
	series, busy bool
}{{"series=off", false, false}, {"series=on", true, false}, {"busy", false, true}}

// fleetRound returns one round of a fleet from newIdleFleet: the
// heartbeat and, with the series on, a read of every slave's series.
// A sleeping slave records nothing in the round itself; the read
// backfills the sample the round skipped, so the series' cost stays in
// the round it belongs to.
func fleetRound(eng *sim.Engine, c *migration.Coordinator, series bool, heartbeat time.Duration) func() {
	if !series {
		return func() { eng.RunFor(heartbeat) }
	}
	return func() {
		eng.RunFor(heartbeat)
		for n := cluster.NodeID(0); n < 1000; n++ {
			c.EstimateSeries(n)
		}
	}
}

// BenchmarkHeartbeatRound measures one heartbeat round of a 1,000-slave
// fleet from one engine event. In the idle cases every slave sleeps and
// the round visits none of them; with series=on each still gets the
// round's sample, backfilled when its series is read. In the busy case
// the 10 slaves with blocked work refresh their estimate, report, check
// their memory, pull and try to start their transfer.
func BenchmarkHeartbeatRound(b *testing.B) {
	for _, fc := range fleetCases {
		b.Run(fc.name, func(b *testing.B) {
			eng, c, _, heartbeat := newIdleFleet(b, fc.series, fc.busy)
			round := fleetRound(eng, c, fc.series, heartbeat)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// TestHeartbeatRoundAllocs pins BenchmarkHeartbeatRound's steady state
// at zero allocations: 100 rounds (after AllocsPerRun's warm-up round)
// allocate nothing, and each still counts 1,000 slave ticks. With
// series=on each round's read backfills one sample per sleeping slave,
// an unchanged estimate one second after the last, which extends the
// series' last run in place. In the busy case each of the 10 busy
// slaves is visited every round and finds its transfer blocked on
// memory.
func TestHeartbeatRoundAllocs(t *testing.T) {
	for _, fc := range fleetCases {
		t.Run(fc.name, func(t *testing.T) {
			eng, c, held, heartbeat := newIdleFleet(t, fc.series, fc.busy)
			round := fleetRound(eng, c, fc.series, heartbeat)
			before, recorded := eng.EventsFired(), 0
			if fc.series {
				recorded = c.EstimateSeries(999).Len()
			}
			blocked := map[cluster.NodeID]int{}
			for _, n := range held {
				blocked[n] = c.Slave(n).BlockedOnMemory
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("a heartbeat round of 1,000 slaves allocated %.2f objects, want 0", allocs)
			}
			if fired := eng.EventsFired() - before; fired != 101*1000 {
				t.Errorf("fired %d slave ticks, want %d", fired, 101*1000)
			}
			if fc.series {
				if n := c.EstimateSeries(999).Len() - recorded; n != 101 {
					t.Errorf("the last slave recorded %d estimates, want 101", n)
				}
			}
			for _, n := range held {
				if got := c.Slave(n).BlockedOnMemory - blocked[n]; got != 101 {
					t.Errorf("slave %v was blocked on memory %d times in 101 rounds, want 101", n, got)
				}
			}
		})
	}
}

// newStalledScheduler builds a 7-node compute framework whose nodes
// have no task slots and submits a 64-block map-only job. Once the
// platform overhead has passed, all 64 map tasks stay pending and the
// framework's locality retry runs one scheduling pass every 500 ms,
// the only event in the queue. Like newIdleFleet it first runs past a
// power of two in nanoseconds (2^40), so the radix queue has allocated
// every level the passes use.
// It returns the engine and the retry interval.
func newStalledScheduler(tb testing.TB) (*sim.Engine, time.Duration) {
	tb.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 7, func(int) cluster.NodeConfig {
		c := cluster.DefaultNodeConfig()
		c.TaskSlots = 0
		return c
	})
	fs := dfs.New(cl, dfs.DefaultConfig())
	fw := compute.New(fs, nil)
	if _, err := fs.CreateFile("in", 64*dfs.DefaultConfig().BlockSize); err != nil {
		tb.Fatal(err)
	}
	j, err := fw.Submit(compute.JobSpec{Name: "stalled", InputFiles: []string{"in"}}.DefaultOverheads())
	if err != nil {
		tb.Fatal(err)
	}
	eng.RunUntil(sim.Time(1 << 40))
	if j.State != compute.JobRunning || len(j.Tasks) != 0 {
		tb.Fatalf("stalled job: state %v, %d tasks done", j.State, len(j.Tasks))
	}
	return eng, 500 * time.Millisecond
}

// BenchmarkComputeSchedulePass measures one compute scheduling pass
// over 64 pending map tasks when no slot is free: each task checks its
// memory replica, its disk replicas and then every node for a slot.
func BenchmarkComputeSchedulePass(b *testing.B) {
	eng, retry := newStalledScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(retry)
	}
}

// TestComputeSchedulePassAllocs pins BenchmarkComputeSchedulePass's
// steady state at zero allocations: 100 passes over 64 pending tasks
// (after AllocsPerRun's warm-up pass) allocate nothing.
func TestComputeSchedulePassAllocs(t *testing.T) {
	eng, retry := newStalledScheduler(t)
	before := eng.EventsFired()
	if allocs := testing.AllocsPerRun(100, func() { eng.RunFor(retry) }); allocs != 0 {
		t.Errorf("a scheduling pass over 64 pending tasks allocated %.2f objects, want 0", allocs)
	}
	if fired := eng.EventsFired() - before; fired != 101 {
		t.Errorf("fired %d scheduling passes, want 101", fired)
	}
}

// newComputeJobs returns a warm framework on 7 idle nodes, with no
// migration manager and no tracer, and two jobs to run on it: a
// map-only job over one block and a 64-block job with 2 reducers. Each
// job has run twice, so the task pool, the dfs op pools, the engine's
// event pool and the scheduler's pending list are sized for it.
func newComputeJobs(tb testing.TB) (*sim.Engine, *compute.Framework, [2]compute.JobSpec) {
	tb.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 7, nil)
	fs := dfs.New(cl, dfs.DefaultConfig())
	fw := compute.New(fs, nil)
	bs := dfs.DefaultConfig().BlockSize
	if _, err := fs.CreateFile("one", bs); err != nil {
		tb.Fatal(err)
	}
	if _, err := fs.CreateFile("wide", 64*bs); err != nil {
		tb.Fatal(err)
	}
	specs := [2]compute.JobSpec{
		compute.JobSpec{Name: "one", InputFiles: []string{"one"}, MapCPUPerByte: 1 / float64(bs)}.DefaultOverheads(),
		compute.JobSpec{Name: "wide", InputFiles: []string{"wide"}, MapCPUPerByte: 1 / float64(bs),
			MapOutputRatio: 0.1, Reducers: 2, ReduceCPUPerByte: 1 / float64(bs), OutputRatio: 1}.DefaultOverheads(),
	}
	for i := 0; i < 2; i++ {
		for _, spec := range specs {
			runComputeJob(tb, eng, fw, spec)
		}
	}
	return eng, fw, specs
}

// runComputeJob submits one job and runs the engine until it is done.
func runComputeJob(tb testing.TB, eng *sim.Engine, fw *compute.Framework, spec compute.JobSpec) {
	j, err := fw.Submit(spec)
	if err != nil {
		tb.Fatal(err)
	}
	eng.Run()
	if j.State != compute.JobDone {
		tb.Fatalf("job %s: state %v", spec.Name, j.State)
	}
}

// BenchmarkComputeJob measures one 64-block job with 2 reducers on a
// warm framework, from submission to completion: 64 map tasks that
// each read a block and compute, then 2 reduce tasks that each fetch a
// shuffle share, compute and write their output.
func BenchmarkComputeJob(b *testing.B) {
	eng, fw, specs := newComputeJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runComputeJob(b, eng, fw, specs[1])
	}
}

// computeJobAllocs is what a job allocates on a warm framework,
// whatever its size: the Job, its Tasks slice (sized once), its input
// block IDs and the submission's lead-time callback. Every task is a
// pooled op, and the reads, writes, flows and events under it come
// from pools too.
const computeJobAllocs = 4

// TestComputeJobAllocs pins BenchmarkComputeJob's allocations: on a
// warm framework a map-only job over one block and a 64-block job with
// 2 reducers each make exactly computeJobAllocs allocations, so no
// map or reduce task allocates from launch to completion. The integer
// average of AllocsPerRun rounds away the amortized growth of the
// framework's job lists and of the radix queue's buckets, none of it
// per job.
func TestComputeJobAllocs(t *testing.T) {
	eng, fw, specs := newComputeJobs(t)
	for _, spec := range specs {
		if allocs := testing.AllocsPerRun(50, func() { runComputeJob(t, eng, fw, spec) }); allocs != computeJobAllocs {
			t.Errorf("job %s allocated %.0f objects, want %d (the Job, its Tasks, its block IDs, its lead-time callback)",
				spec.Name, allocs, computeJobAllocs)
		}
	}
}

// BenchmarkTraceReadSpan measures the tracer's recording path as a
// traced read exercises it: one op begins a span with two attributes,
// ends it with two more and records a two-attribute instant. The
// tracer is replaced every 2^16 ops so the logs stay bounded; the
// growth of the span/instant logs and arena pages is amortized into
// B/op, and nothing is allocated per record (internal/trace
// TestTraceRecordAllocs).
func BenchmarkTraceReadSpan(b *testing.B) {
	eng := sim.NewEngine(1)
	var tr *trace.Tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			tr = trace.New(eng)
		}
		sp := tr.Begin("read", "read", 3, trace.Int("block", int64(i)), trace.Int("size", 128<<20))
		sp.End(trace.Str("source", "mem-local"), trace.Int("server", 5))
		tr.Instant("migration", "evict", 3, trace.Int("block", int64(i)), trace.Int("bytes", 128<<20))
	}
}

// newTracedRun records a fixed trace: 10,000 reads on 200 nodes, each
// a span with two attributes at begin and two at end and a child
// transfer span, one instant per 16 reads, two counters and a
// read-latency histogram.
func newTracedRun() *trace.Tracer {
	eng := sim.NewEngine(1)
	tr := trace.New(eng)
	lat := tr.Hist("read.latency_ns")
	for i := 0; i < 10000; i++ {
		node := i % 200
		eng.RunUntil(sim.Time(i) * sim.Time(time.Millisecond))
		sp := tr.Begin("read", "read", node, trace.Int("block", int64(i)), trace.Int("size", 128<<20))
		sp.Child("read", "transfer", (node+1)%200, trace.Int("bytes", 128<<20)).End()
		sp.End(trace.Str("source", "disk"), trace.Int("server", int64(node)))
		lat.Observe(int64(i%977) * int64(time.Millisecond))
		tr.Inc("dfs.reads")
		if i%16 == 0 {
			tr.Instant("migration", "evict", node, trace.Int("block", int64(i)))
			tr.Inc("migration.evicted")
		}
	}
	return tr
}

// BenchmarkTraceWriteJSON measures the canonical trace export of one
// fixed traced run (newTracedRun): building the document and encoding
// it, discarding the bytes.
func BenchmarkTraceWriteJSON(b *testing.B) {
	tr := newTracedRun()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleAdd appends to a metrics.Sample, the log behind the
// SWIM replay's task durations and memory samples (Table I, Figs 5-7).
// The sample is replaced every 2^16 values, so B/op is what a
// 65,536-value log allocates per value: its pages, which never move, and
// nothing copied.
func BenchmarkSampleAdd(b *testing.B) {
	var s *metrics.Sample
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			s = metrics.NewSample()
		}
		s.Add(float64(i))
	}
}

// BenchmarkTimeSeriesRecord records into a metrics.TimeSeries, the log
// behind every slave's estimate series (Fig 9), with a value that
// changes at every sample, so each sample starts a 32 B run: the
// series' worst case. The series is replaced every 2^16 samples.
func BenchmarkTimeSeriesRecord(b *testing.B) {
	var ts *metrics.TimeSeries
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			ts = metrics.NewTimeSeries("est")
		}
		ts.Record(float64(i), float64(i))
	}
}

// BenchmarkGenerateServing measures drawing the serving1k request
// stream (DefaultServingSpec1k, about 96,000 requests over a 20-minute
// day) for seed 42, the draw BenchmarkServing1k makes during set-up.
func BenchmarkGenerateServing(b *testing.B) {
	spec := experiments.DefaultServingSpec1k()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.GenerateServing(spec, benchSeed)
	}
}

// TestGenerateServingAllocs pins BenchmarkGenerateServing's allocation
// count at 10, each made once per draw: the random source (its Rand
// and the default tenant mix stay on the stack); the tenant-pick CDF;
// the slice of per-tenant file CDFs and the three CDFs; the global CDF;
// the file weights; the stream; and the one request log, sized four
// standard deviations above the expected arrival count. Nothing is
// allocated per request.
func TestGenerateServingAllocs(t *testing.T) {
	spec := experiments.DefaultServingSpec1k()
	var n int
	allocs := testing.AllocsPerRun(5, func() { n = len(workload.GenerateServing(spec, benchSeed).Requests) })
	if allocs != 10 {
		t.Errorf("drawing %d serving requests allocated %.2f objects, want 10", n, allocs)
	}
}

// newAssignPass returns one target-assignment pass of the named policy
// as the migration master runs it: a Begin over a 1,000-node view (every
// 50th node dead, costs and queue depths spread across nodes) and then
// an Assign for each of 1,000 three-replica requests, the request slice
// reused as the master reuses it.
func newAssignPass(tb testing.TB, name string) func() {
	tb.Helper()
	p, err := policy.New(name)
	if err != nil {
		tb.Fatal(err)
	}
	const nodes = 1000
	v := policy.View{
		Nodes:    make([]policy.NodeView, nodes),
		StdBlock: 128 * sim.MB,
		Rand:     rand.New(rand.NewSource(1)),
	}
	for i := range v.Nodes {
		v.Nodes[i] = policy.NodeView{Alive: i%50 != 7, PerByte: 1e-9 * float64(1+i%13), Queued: i % 5}
	}
	replicas := make([]cluster.NodeID, 3)
	return func() {
		p.Begin(v)
		for k := 0; k < 1000; k++ {
			for r := range replicas {
				replicas[r] = cluster.NodeID((k*7 + r*331) % nodes)
			}
			p.Assign(policy.Request{Block: dfs.BlockID(k), Size: 128 * sim.MB, Replicas: replicas})
		}
	}
}

// assignPolicies are the migrating policies BenchmarkPolicyAssign and
// TestPolicyAssignAllocs cover.
var assignPolicies = []string{"dyrs", "ignem", "costaware"}

// BenchmarkPolicyAssign measures one assignment pass (newAssignPass)
// per policy.
func BenchmarkPolicyAssign(b *testing.B) {
	for _, name := range assignPolicies {
		b.Run(name, func(b *testing.B) {
			pass := newAssignPass(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// TestPolicyAssignAllocs pins BenchmarkPolicyAssign's steady state at
// zero allocations: after the warm-up pass has sized each policy's
// per-node tables, a pass allocates nothing.
func TestPolicyAssignAllocs(t *testing.T) {
	for _, name := range assignPolicies {
		if allocs := testing.AllocsPerRun(20, newAssignPass(t, name)); allocs != 0 {
			t.Errorf("%s: an assignment pass allocated %.2f objects, want 0", name, allocs)
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
