package main

import (
	"fmt"
	"io"
	"time"

	"dyrs/internal/cache"
	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/experiments"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

// servingConfig sizes the serving workload: the cluster, the request
// stream and the serving loop's cache and prefetch settings.
type servingConfig struct {
	workers, racks int
	spec           workload.ServingSpec
	load           experiments.ServingLoadOptions
}

// servingPreset returns the serving workload's preset. The full size is
// the Serving1kOptions file population (1,024 files of 4 blocks) read
// at 45 req/s over 90 minutes on 200 nodes in 10 racks, with a 256 MiB
// LRU cache per node, too small for the hot set. At 1,000 nodes the
// slaves' one-second heartbeats dominate the run and a rate high enough
// to outweigh them does not drain; on 200 nodes the read path takes
// several times migration's CPU (README.md). At the diurnal peak up to
// 4,000 flows are open at once, and the 20-minute drain serves every
// read.
func servingPreset(size string) servingConfig {
	if size == "smoke" {
		o := experiments.ServingSmokeOptions(0)
		return servingConfig{workers: o.Workers, racks: o.Racks, spec: o.Spec,
			load: experiments.DefaultServingLoadOptions()}
	}
	spec := experiments.DefaultServingSpec1k()
	spec.MeanRate = 45
	spec.Horizon = 90 * time.Minute
	load := experiments.DefaultServingLoadOptions()
	load.CacheBudget = 256 * sim.MB
	load.Drain = 20 * time.Minute
	return servingConfig{workers: 200, racks: 10, spec: spec, load: load}
}

// servingRow is the serving workload's canonical output: the DYRS row of
// the serving scorecard plus the run's event count and unserved reads.
type servingRow struct {
	Row      experiments.ServingPolicyRow `json:"row"`
	Unserved int                          `json:"unserved"`
	Events   uint64                       `json:"events"`
}

// servingRun is the state runServing's scheduled events share,
// mirroring the locals of experiments.RunServingLoad.
type servingRun struct {
	led        *ledger
	eng        *sim.Engine
	fs         *dfs.FS
	coord      *migration.Coordinator
	stream     *workload.ServingStream
	tenants    []workload.TenantClass
	fileBlocks [][]dfs.BlockID
	hotSet     []bool
	hotNames   []string
	currentJob migration.JobID
	latHists   []*trace.Hist

	issued, served, memReads, within []int
	unserved                         int
	peakQueued                       int
}

const servingJobBase = migration.JobID(1 << 20)

func (s *servingRun) epoch(e int) {
	job := servingJobBase + migration.JobID(e)
	s.led.enter(seamMigrate)
	err := s.coord.Migrate(job, s.hotNames, false)
	s.led.exit()
	if err == nil {
		s.currentJob = job
	}
	if e > 0 {
		s.led.enter(seamEvict)
		s.coord.Evict(servingJobBase + migration.JobID(e-1))
		s.led.exit()
	}
}

func (s *servingRun) request(i int) {
	r := s.stream.Requests[i]
	at := cluster.NodeID((i + r.Tenant) % s.fs.Cluster().Size())
	id := s.fileBlocks[r.File][r.Block]
	s.issued[r.Tenant]++
	if s.led != nil {
		if p := s.eng.Pending(); p > s.peakQueued {
			s.peakQueued = p
		}
	}
	if s.currentJob != 0 && s.hotSet[r.File] {
		s.led.enter(seamNoteRead)
		s.coord.NoteRead(s.currentJob, id)
		s.led.exit()
	}
	tenant := r.Tenant
	s.led.enter(seamRead)
	err := s.fs.ReadBlock(at, id, func(res dfs.ReadResult) { s.done(tenant, res) })
	s.led.exit()
	if err != nil {
		s.unserved++ // ErrNoReplica
	}
}

func (s *servingRun) done(tenant int, res dfs.ReadResult) {
	if res.Failed {
		s.unserved++
		return
	}
	s.served[tenant]++
	if res.Source.FromMemory() {
		s.memReads[tenant]++
	}
	lat := time.Duration(res.Duration())
	s.latHists[tenant].Observe(int64(lat))
	if lat <= s.tenants[tenant].LatencyTarget {
		s.within[tenant]++
	}
}

// runServing repeats experiments.RunServing for the DYRS policy alone:
// NewEnv's construction of a traced environment, then RunServingLoad's
// population, cache, epoch prefetch, open-loop stream, drain and
// scorecard, then the environment's Close.
func runServing(cfg servingConfig, seed int64, m *meter) (outcome, error) {
	row := &servingRow{}
	out := outcome{row: row, attempted: 1, failed: 1}
	led := m.led
	m.beginSetup()

	led.enter(seamGen)
	stream := workload.GenerateServing(cfg.spec, seed)
	led.exit()

	eng := sim.NewEngine(seed)
	tr := trace.New(eng)
	tr.SetSampling(0, uint64(seed))
	var flows *flowCounter
	if m.traced() {
		flows = countFlows(eng)
	}
	led.enter(seamCluster)
	cl := cluster.New(eng, cfg.workers, nil)
	if cfg.racks > 1 {
		cl.ConfigureRacks(cfg.racks, 0)
	}
	led.exit()
	rackOf := make([]int, cfg.workers)
	for i := range rackOf {
		rackOf[i] = cl.Rack(cluster.NodeID(i))
	}
	tr.SetTopology(rackOf)
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > cfg.workers {
		fsCfg.Replication = cfg.workers
	}
	led.enter(seamCreate)
	fs := dfs.New(cl, fsCfg)
	led.exit()
	binder, pol := dyrsBinder(led)
	led.enter(seamCoordNew)
	coord := migration.NewCoordinator(fs, migration.DefaultConfig(), binder)
	led.exit()
	// The scheduler link matters: scavenging asks it which jobs are
	// still active.
	coord.SetScheduler(compute.New(fs, coord))

	spec := stream.Spec
	s := &servingRun{led: led, eng: eng, fs: fs, coord: coord, stream: stream, tenants: spec.Tenants}
	if len(s.tenants) == 0 {
		s.tenants = workload.DefaultTenants()
	}
	blockSize := fs.Config().BlockSize
	s.fileBlocks = make([][]dfs.BlockID, spec.Files)
	for i := 0; i < spec.Files; i++ {
		name := spec.FileName(i)
		led.enter(seamCreate)
		_, err := fs.CreateFile(name, sim.Bytes(spec.BlocksPerFile)*blockSize)
		led.exit()
		if err != nil {
			return out, err
		}
		led.enter(seamLookup)
		f, err := fs.File(name)
		led.exit()
		if err != nil {
			return out, err
		}
		s.fileBlocks[i] = f.Blocks
	}
	ch, err := cache.New(fs, cfg.load.CacheBudget, cache.LRU)
	if err != nil {
		return out, err
	}

	led.enter(seamSchedule)
	hot := stream.HotFiles(cfg.load.PrefetchFrac)
	s.hotSet = make([]bool, spec.Files)
	s.hotNames = make([]string, len(hot))
	for i, f := range hot {
		s.hotSet[f] = true
		s.hotNames[i] = spec.FileName(f)
	}
	epochs := cfg.load.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	if len(hot) > 0 {
		for e := 0; e < epochs; e++ {
			e := e
			eng.At(sim.Time(spec.Horizon/time.Duration(epochs)*time.Duration(e)), func() { s.epoch(e) })
		}
	}
	n := len(s.tenants)
	s.latHists = make([]*trace.Hist, n)
	for i, tc := range s.tenants {
		s.latHists[i] = tr.Hist("serving.lat_ns." + tc.Name)
	}
	s.issued, s.served, s.memReads, s.within = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i, r := range stream.Requests {
		i := i
		eng.At(sim.Time(r.At), func() { s.request(i) })
	}
	led.exit()
	m.endSetup()

	eng.RunUntil(sim.Time(spec.Horizon))
	if len(hot) > 0 {
		led.enter(seamEvict)
		coord.Evict(servingJobBase + migration.JobID(epochs-1))
		led.exit()
	}
	eng.RunFor(sim.Duration(cfg.load.Drain))
	led.enter(seamDrain)
	coord.ScavengeAll()
	led.exit()
	eng.RunFor(sim.Duration(5 * time.Second))

	row.Row = experiments.ServingPolicyRow{
		Policy:      "dyrs",
		CacheHits:   ch.Hits,
		CacheMisses: ch.Misses,
		CacheRate:   ch.HitRate(),
	}
	for i, tc := range s.tenants {
		ts := experiments.TenantScore{
			Tenant:   tc.Name,
			Issued:   s.issued[i],
			Served:   s.served[i],
			MemReads: s.memReads[i],
			TargetMs: float64(tc.LatencyTarget) / float64(time.Millisecond),
			P99Ms:    s.latHists[i].Quantile(0.99) / float64(time.Millisecond),
		}
		if ts.Served > 0 {
			ts.HitRate = float64(ts.MemReads) / float64(ts.Served)
			ts.WithinTarget = float64(s.within[i]) / float64(ts.Served)
		}
		row.Row.Issued += ts.Issued
		row.Row.Served += ts.Served
		row.Row.MemReads += ts.MemReads
		row.Row.Tenants = append(row.Row.Tenants, ts)
	}
	if row.Row.Served > 0 {
		row.Row.HitRate = float64(row.Row.MemReads) / float64(row.Row.Served)
	}
	st := coord.Stats()
	row.Row.Migrated = st.Migrated
	row.Row.MemoryHits = st.MemoryHits
	row.Row.MissedReads = st.MissedReads
	row.Row.Dropped = st.Dropped
	if lead := tr.Hist("migration.lead_ns"); lead.Count() > 0 {
		row.Row.LeadP50Sec = lead.Quantile(0.5) / float64(time.Second)
		row.Row.LeadP99Sec = lead.Quantile(0.99) / float64(time.Second)
	}
	ch.Flush()
	led.enter(seamDrain)
	coord.Shutdown()
	led.exit()
	row.Unserved = s.unserved
	row.Events = eng.EventsFired()

	err = endChecks(fs, coord, led)
	if err == nil && row.Row.Issued != row.Row.Served+row.Unserved {
		err = fmt.Errorf("issued %d != served %d + unserved %d: reads still in flight after the drain",
			row.Row.Issued, row.Row.Served, row.Unserved)
	}
	m.endSim()
	out.attempted = row.Row.Issued
	out.failed = row.Row.Issued - row.Row.Served
	out.events = row.Events
	out.counts = map[string]float64{
		"sim.peak_queue":  float64(s.peakQueued),
		"cache.hits":      float64(ch.Hits),
		"cache.misses":    float64(ch.Misses),
		"cache.evictions": float64(ch.Evictions),
		"trace.spans":     float64(len(tr.Spans())),
	}
	migrationCounts(out.counts, coord, binder, pol)
	readCounts(out.counts, fs)
	flows.report(out.counts)
	if m.traced() {
		led.enter(seamExport)
		exportErr := tr.WriteJSON(io.Discard)
		led.exit()
		if err == nil && exportErr != nil {
			err = fmt.Errorf("trace export: %w", exportErr)
		}
	}
	if err != nil {
		return out, fmt.Errorf("serving: %w", err)
	}
	return out, nil
}
