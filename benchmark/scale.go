package main

import (
	"fmt"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/gtrace"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
)

// scaleOptions sizes the scale workload: the Scale1kOptions cluster
// (1,000 nodes in 20 racks) with a quarter of its namespace and jobs and
// 12 h of virtual time, so one rep takes about 1.5 s and a run holds
// several reps.
func scaleOptions(size string, seed int64) experiments.ScaleOptions {
	if size == "smoke" {
		o := experiments.Scale100Options(seed)
		o.Scenario = "scale-smoke"
		o.Files, o.BlocksPerFile, o.Jobs, o.Virtual = 64, 64, 32, 6*time.Hour
		return o
	}
	o := experiments.Scale1kOptions(seed)
	o.Scenario = "scale-bench"
	o.Files, o.Jobs, o.Virtual = 512, 128, 12*time.Hour
	return o
}

// scaleMigrationConfig repeats the scale family's migration tunables
// (heartbeats every 10 s, Algorithm 1 every 5 s, no estimate series).
func scaleMigrationConfig() migration.Config {
	cfg := migration.DefaultConfig()
	cfg.Heartbeat = 10 * time.Second
	cfg.TargetUpdateInterval = 5 * time.Second
	cfg.DisableEstimateSeries = true
	return cfg
}

// scaleRun is what runScale's scheduled events share. Each
// event captures one pointer to it, as experiments.RunScale's events
// capture the coordinator, so both schedule closures of the same size.
type scaleRun struct {
	coord *migration.Coordinator
	led   *ledger
}

func (r *scaleRun) migrate(job migration.JobID, files []string) {
	r.led.enter(seamMigrate)
	// Migrate fails only for unknown files; these were resolved to block
	// ids when the job was scheduled.
	_ = r.coord.Migrate(job, files, true)
	r.led.exit()
}

func (r *scaleRun) noteRead(job migration.JobID, id dfs.BlockID) {
	r.led.enter(seamNoteRead)
	r.coord.NoteRead(job, id)
	r.led.exit()
}

func (r *scaleRun) evict(job migration.JobID) {
	r.led.enter(seamEvict)
	r.coord.Evict(job)
	r.led.exit()
}

// runScale repeats experiments.RunScale for an untraced, unsharded run:
// the same generator calls, construction order, scheduled events and
// end-of-run invariants, with the phase split and the traced rep's
// timers added.
func runScale(opt experiments.ScaleOptions, m *meter) (outcome, error) {
	row := experiments.ScaleRow{
		Scenario:     opt.Scenario,
		Nodes:        opt.Nodes,
		Racks:        opt.Racks,
		Blocks:       opt.Files * opt.BlocksPerFile,
		Jobs:         opt.Jobs,
		VirtualHours: time.Duration(opt.Virtual).Hours(),
	}
	out := outcome{row: &row, attempted: 1, failed: 1}
	led := m.led
	m.beginSetup()
	eng := sim.NewEngine(opt.Seed)
	var flows *flowCounter
	if m.traced() {
		flows = countFlows(eng)
	}

	led.enter(seamGen)
	tr := gtrace.Generate(gtrace.Config{
		Servers:         opt.Nodes,
		Duration:        24 * time.Hour,
		BinWidth:        5 * time.Minute,
		Jobs:            opt.Jobs,
		MeanLeadSeconds: 8.8,
		Seed:            opt.Seed + 1,
		ActivityMedian:  0.008,
		ActivitySigma:   1.3,
	})
	led.exit()
	meanUtil := make([]float64, opt.Nodes)
	for i, series := range tr.Util {
		sum := 0.0
		for _, u := range series {
			sum += u
		}
		meanUtil[i] = sum / float64(len(series))
	}

	led.enter(seamCluster)
	cl := cluster.New(eng, opt.Nodes, func(i int) cluster.NodeConfig {
		cfg := cluster.DefaultNodeConfig()
		scale := 1 - 2*meanUtil[i]
		if scale < 0.35 {
			scale = 0.35
		}
		cfg.DiskScale = scale
		return cfg
	})
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, 40*float64(sim.GB))
	}
	led.exit()

	led.enter(seamCreate)
	fs := dfs.New(cl, dfs.Config{BlockSize: opt.BlockSize, Replication: 3})
	led.exit()
	for i := 0; i < opt.Files; i++ {
		size := sim.Bytes(opt.BlocksPerFile) * opt.BlockSize
		led.enter(seamCreate)
		_, err := fs.CreateFile(fmt.Sprintf("scale-%05d", i), size)
		led.exit()
		if err != nil {
			return out, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}
	}

	binder, pol := dyrsBinder(led)
	led.enter(seamCoordNew)
	coord := migration.NewCoordinator(fs, scaleMigrationConfig(), binder)
	led.exit()
	run := &scaleRun{coord: coord, led: led}

	led.enter(seamSchedule)
	span := float64(opt.Virtual)
	arrivalSpan := 0.75 * span
	peakQueued := 0
	sample := func() {
		if p := eng.Pending(); p > peakQueued {
			peakQueued = p
		}
	}
	fileNames := make([]string, opt.Files)
	for i := range fileNames {
		fileNames[i] = fmt.Sprintf("scale-%05d", i)
	}
	for j := 0; j < opt.Jobs; j++ {
		job := migration.JobID(j + 1)
		tj := tr.Jobs[j%len(tr.Jobs)]
		submit := sim.Time(arrivalSpan * float64(j) / float64(opt.Jobs))

		files := make([]string, opt.FilesPerJob)
		for k := range files {
			files[k] = fileNames[(j*opt.FilesPerJob+k)%opt.Files]
		}
		led.enter(seamLookup)
		ids, err := fs.FileBlockIDs(files)
		led.exit()
		if err != nil {
			return out, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}

		lead := sim.Duration(2 * tj.LeadSeconds * float64(time.Second))
		readSpan := 5 * tj.ReadSeconds
		if readSpan < 120 {
			readSpan = 120
		}
		if readSpan > 1800 {
			readSpan = 1800
		}
		readStart := submit.Add(lead)
		eng.At(submit, func() {
			sample()
			run.migrate(job, files)
		})
		for k, id := range ids {
			id := id
			at := readStart.Add(sim.Duration(readSpan * float64(k) / float64(len(ids)) * float64(time.Second)))
			eng.At(at, func() { run.noteRead(job, id) })
		}
		evictAt := readStart.Add(sim.Duration((readSpan + 60) * float64(time.Second)))
		eng.At(evictAt, func() { run.evict(job) })
	}
	sample()
	led.exit()
	m.endSetup()

	eng.RunUntil(sim.Time(span))
	led.enter(seamDrain)
	coord.ScavengeAll()
	coord.Shutdown()
	led.exit()
	eng.Run()

	st := coord.Stats()
	row.EventsFired = eng.EventsFired()
	row.PeakQueued = peakQueued
	row.Requested = st.Requested
	row.Migrated = st.Migrated
	row.MemoryHits = st.MemoryHits
	row.MissedReads = st.MissedReads
	row.Dropped = st.Dropped
	row.Evicted = st.Evicted
	row.BytesMigratedTB = float64(st.BytesMigrated) / float64(sim.TB)
	row.BinderUpdates = binder.Updates
	row.BinderSkipped = binder.SkippedUpdates

	err := endChecks(fs, coord, led)
	m.endSim()
	out.attempted = st.Requested
	out.failed = st.Requested - st.Migrated - st.Dropped
	out.events = row.EventsFired
	out.counts = map[string]float64{"sim.peak_queue": float64(peakQueued)}
	migrationCounts(out.counts, coord, binder, pol)
	flows.report(out.counts)
	if err != nil {
		return out, fmt.Errorf("scale %s: %w", opt.Scenario, err)
	}
	return out, nil
}
