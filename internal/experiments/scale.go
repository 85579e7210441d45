package experiments

import (
	"fmt"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/gtrace"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// ScaleOptions parameterizes one run of the datacenter-scale experiment
// family: DYRS driven end-to-end — placement, delayed binding, Algorithm
// 1 targeting, migration flows, implicit eviction, scavenging — on a
// cluster far beyond the paper's 7-node testbed, with the workload shape
// (per-node activity skew, job lead times, read times) derived from the
// internal/gtrace Google-trace synthesis.
//
// Unlike the figure experiments, the scale family bypasses the compute
// framework: jobs are migration requests plus scheduled block reads, so
// the simulated event load concentrates on the layers the family exists
// to stress — the NameNode block tables, the master's pending set, and
// the event queue at 10^6-10^7 queued events.
type ScaleOptions struct {
	// Scenario names the preset in reports ("scale100", "scale1k", ...).
	Scenario string
	// Nodes is the cluster size.
	Nodes int
	// Racks partitions the cluster; replica placement is rack-aware.
	Racks int
	// Files and BlocksPerFile size the namespace: Files x BlocksPerFile
	// blocks total.
	Files         int
	BlocksPerFile int
	// BlockSize is the DFS block size for the run.
	BlockSize sim.Bytes
	// Jobs is the number of migration jobs submitted over the run; each
	// job requests FilesPerJob files (round-robin over the namespace).
	Jobs        int
	FilesPerJob int
	// Virtual is the simulated time span.
	Virtual sim.Duration
	// Seed drives all randomness; identical seeds give identical rows.
	Seed int64
	// SampleEvery, when >1, attaches a tracer with deterministic 1-in-N
	// root-record sampling, so a run pays what sampled tracing costs
	// (BenchmarkScale1kSampled gates it). Rows are unchanged.
	SampleEvery int
}

// Scale100Options is the CI-sized preset: 100 nodes for two days of
// virtual time. Small enough to run twice in the determinism gate,
// large enough to exercise rack-aware placement across 4 racks and the
// binder's bucketed pull path.
func Scale100Options(seed int64) ScaleOptions {
	return ScaleOptions{
		Scenario:      "scale100",
		Nodes:         100,
		Racks:         4,
		Files:         400,
		BlocksPerFile: 256,
		BlockSize:     128 * sim.MB,
		Jobs:          400,
		FilesPerJob:   2,
		Virtual:       48 * time.Hour,
		Seed:          seed,
	}
}

// Scale1kOptions is the macro-benchmark preset: 1,000 nodes, >=1M
// blocks, two days of virtual time.
func Scale1kOptions(seed int64) ScaleOptions {
	return ScaleOptions{
		Scenario:      "scale1k",
		Nodes:         1000,
		Racks:         20,
		Files:         2048,
		BlocksPerFile: 512, // 1,048,576 blocks
		BlockSize:     128 * sim.MB,
		Jobs:          512,
		FilesPerJob:   4,
		Virtual:       48 * time.Hour,
		Seed:          seed,
	}
}

// Scale10kOptions is the headline preset: 10,000 nodes and two million
// blocks. Virtual time is one day — heartbeat volume scales as nodes x
// span, and a day at 10k nodes already fires an order of magnitude more
// events than two days at 1k.
//
//lint:testapi BenchmarkScale10k, which the README documents, runs it
func Scale10kOptions(seed int64) ScaleOptions {
	return ScaleOptions{
		Scenario:      "scale10k",
		Nodes:         10000,
		Racks:         100,
		Files:         4096,
		BlocksPerFile: 512, // 2,097,152 blocks
		BlockSize:     128 * sim.MB,
		Jobs:          1024,
		FilesPerJob:   4,
		Virtual:       24 * time.Hour,
		Seed:          seed,
	}
}

// ScaleRow is the deterministic outcome of one scale run: counters only,
// no wall-clock measurements, so the row participates in the byte-
// identical determinism contract. Wall-clock performance (events/sec,
// peak RSS) is measured separately by the macro-benchmarks.
type ScaleRow struct {
	Scenario     string  `json:"scenario"`
	Nodes        int     `json:"nodes"`
	Racks        int     `json:"racks"`
	Blocks       int     `json:"blocks"`
	Jobs         int     `json:"jobs"`
	VirtualHours float64 `json:"virtual_hours"`

	// EventsFired is the total discrete events executed; PeakQueued is
	// the largest observed event-queue population (sampled at job
	// submissions, where the pre-scheduled read events peak).
	EventsFired uint64 `json:"events_fired"`
	PeakQueued  int    `json:"peak_queued_events"`

	Requested       int     `json:"requested"`
	Migrated        int     `json:"migrated"`
	MemoryHits      int     `json:"memory_hits"`
	MissedReads     int     `json:"missed_reads"`
	Dropped         int     `json:"dropped"`
	Evicted         int     `json:"evicted"`
	BytesMigratedTB float64 `json:"bytes_migrated_tb"`

	// BinderUpdates / BinderSkipped report how often the master actually
	// re-ran Algorithm 1 vs how often the input-change gate skipped it.
	BinderUpdates int `json:"binder_updates"`
	BinderSkipped int `json:"binder_skipped"`
}

// ScaleReport aggregates the rows of one or more presets.
type ScaleReport struct {
	Rows []ScaleRow
}

// String renders the family as a table.
func (r ScaleReport) String() string {
	t := NewTable("Datacenter scale — DYRS end-to-end on large clusters",
		"scenario", "nodes", "blocks", "virtual", "events", "peak queue",
		"migrated", "mem hits", "missed", "alg1 runs/skips")
	for _, row := range r.Rows {
		t.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Blocks),
			fmt.Sprintf("%.0fh", row.VirtualHours),
			fmt.Sprintf("%d", row.EventsFired),
			fmt.Sprintf("%d", row.PeakQueued),
			fmt.Sprintf("%d", row.Migrated),
			fmt.Sprintf("%d", row.MemoryHits),
			fmt.Sprintf("%d", row.MissedReads),
			fmt.Sprintf("%d/%d", row.BinderUpdates, row.BinderSkipped))
	}
	return t.String()
}

// scaleMigrationConfig returns the framework tunables for datacenter
// runs: heartbeats an order of magnitude sparser than the testbed
// defaults (10s vs 1s — at 10k nodes over a day, 1s heartbeats alone
// would be 900M events), and the per-slave estimate time series off.
func scaleMigrationConfig() migration.Config {
	cfg := migration.DefaultConfig()
	cfg.Heartbeat = 10 * time.Second
	cfg.TargetUpdateInterval = 5 * time.Second
	cfg.DisableEstimateSeries = true
	return cfg
}

// RunScale executes one scale scenario and returns its deterministic
// row. The run ends with hard invariant checks: fsck must be clean and
// no block may remain buffered after final eviction and scavenging.
func RunScale(opt ScaleOptions) (ScaleRow, error) {
	row := ScaleRow{
		Scenario:     opt.Scenario,
		Nodes:        opt.Nodes,
		Racks:        opt.Racks,
		Blocks:       opt.Files * opt.BlocksPerFile,
		Jobs:         opt.Jobs,
		VirtualHours: time.Duration(opt.Virtual).Hours(),
	}
	if opt.Nodes <= 0 || opt.Files <= 0 || opt.BlocksPerFile <= 0 || opt.Jobs <= 0 || opt.FilesPerJob <= 0 {
		return row, fmt.Errorf("scale %s: non-positive size parameter", opt.Scenario)
	}
	// Checked here rather than left to the layers: a non-positive block
	// size panics in dfs set-up and a negative span in scheduling, and a
	// zero span would run nothing and still report a clean row.
	if opt.BlockSize <= 0 || opt.Virtual <= 0 {
		return row, fmt.Errorf("scale %s: BlockSize and Virtual must be positive", opt.Scenario)
	}
	if opt.Racks < 0 || opt.SampleEvery < 0 {
		return row, fmt.Errorf("scale %s: Racks and SampleEvery must not be negative", opt.Scenario)
	}

	eng := sim.NewEngine(opt.Seed)
	if opt.SampleEvery > 1 {
		// Attach before components construct (they capture the tracer
		// once). Recording is passive — the traced row stays byte-
		// identical to the untraced one.
		trace.New(eng).SetSampling(opt.SampleEvery, uint64(opt.Seed))
	}

	// Derive per-node disk heterogeneity from the synthesized Google
	// trace: a node's mean background utilization scales down its
	// effective disk bandwidth, reproducing the cross-node skew of §II
	// (busy nodes 5-13x more loaded than idle ones) with zero simulated
	// interference events.
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
	meanUtil := make([]float64, opt.Nodes)
	for i, series := range tr.Util {
		sum := 0.0
		for _, u := range series {
			sum += u
		}
		meanUtil[i] = sum / float64(len(series))
	}

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
	if rt := trace.FromEngine(eng); rt.Enabled() {
		rackOf := make([]int, opt.Nodes)
		for i := range rackOf {
			rackOf[i] = cl.Rack(cluster.NodeID(i))
		}
		rt.SetTopology(rackOf)
	}

	fs := dfs.New(cl, dfs.Config{BlockSize: opt.BlockSize, Replication: 3})
	for i := 0; i < opt.Files; i++ {
		size := sim.Bytes(opt.BlocksPerFile) * opt.BlockSize
		if _, err := fs.CreateFile(fmt.Sprintf("scale-%05d", i), size); err != nil {
			return row, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}
	}

	coord := migration.NewCoordinator(fs, scaleMigrationConfig(), migration.NewDYRSBinder())

	// Schedule the whole workload up front. Every job contributes one
	// submit event, one eviction event, and one read event per block —
	// so the queue holds millions of events at once for the large
	// presets, which is exactly the engine regime this family exists to
	// cover.
	arrivalSpan := 0.75 * float64(opt.Virtual)
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
		submit := sim.Time(sim.FloatDuration(arrivalSpan * float64(j) / float64(opt.Jobs)))

		files := make([]string, opt.FilesPerJob)
		for k := range files {
			files[k] = fileNames[(j*opt.FilesPerJob+k)%opt.Files]
		}
		ids, err := fs.FileBlockIDs(files)
		if err != nil {
			return row, fmt.Errorf("scale %s: %w", opt.Scenario, err)
		}

		// Lead and read times follow the trace job's shape, stretched to
		// datacenter magnitudes: migrations race reads, most win (the
		// §II motivation), the losers exercise missed-read cancellation.
		lead := sim.FloatDuration(2 * tj.LeadSeconds * float64(time.Second))
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
			coord.Migrate(job, files, true)
		})
		for k, id := range ids {
			id := id
			at := readStart.Add(sim.FloatDuration(readSpan * float64(k) / float64(len(ids)) * float64(time.Second)))
			eng.At(at, func() { coord.NoteRead(job, id) })
		}
		evictAt := readStart.Add(sim.FloatDuration((readSpan + 60) * float64(time.Second)))
		eng.At(evictAt, func() { coord.Evict(job) })
	}
	sample()

	eng.RunUntil(sim.Time(opt.Virtual))
	coord.ScavengeAll()
	coord.Shutdown()
	eng.Run() // drain remaining completions after tickers stop

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
	if b, ok := coord.Binder().(*migration.PolicyBinder); ok {
		row.BinderUpdates = b.Updates
		row.BinderSkipped = b.SkippedUpdates
	}

	// Hard end-of-run invariants: the block tables must be internally
	// consistent, and after every job evicted plus a full scavenge no
	// replica may remain buffered.
	if errs := fs.Fsck(); len(errs) > 0 {
		return row, fmt.Errorf("scale %s: fsck found %d issue(s), first: %v",
			opt.Scenario, len(errs), errs[0])
	}
	if n := fs.MemReplicaCount(); n != 0 {
		return row, fmt.Errorf("scale %s: %d blocks still buffered after final eviction", opt.Scenario, n)
	}
	pend, queued, migr, inMem := coord.StateCounts()
	if pend != 0 || queued != 0 || migr != 0 || inMem != 0 {
		return row, fmt.Errorf("scale %s: non-zero final state counts %d/%d/%d/%d",
			opt.Scenario, pend, queued, migr, inMem)
	}
	return row, nil
}

// RunScaleFamily runs the given presets in order.
func RunScaleFamily(opts []ScaleOptions) (ScaleReport, error) {
	var rep ScaleReport
	for _, opt := range opts {
		row, err := RunScale(opt)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// scaleExperiment registers the CI-sized preset of the scale family, so
// the determinism gate and -verify cover the datacenter code paths
// (sampling placer, bucketed binder, incremental counts) on every run.
func scaleExperiment() Experiment {
	return Experiment{
		Name:    "scale",
		Summary: "extension: datacenter-scale DYRS (100-node preset; 1k/10k via macro-benchmarks)",
		Run: func(seed int64) (any, error) {
			return RunScaleFamily([]ScaleOptions{Scale100Options(seed)})
		},
		Merge: func(rep *FullReport, result any) {
			rep.Scale = result.(ScaleReport).Rows
		},
	}
}
