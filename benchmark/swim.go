package main

import (
	"fmt"
	"math/rand"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// swimConfig sizes the SWIM workload: the cluster, the trace generator
// and how long the replay may run before unfinished jobs count as
// failed.
type swimConfig struct {
	workers, racks int
	gen            workload.SWIMConfig
	horizon        time.Duration
}

// swimPreset returns the SWIM workload's preset. The smoke size is the
// paper's 7-worker testbed replaying the default 200-job trace, which
// is exactly experiments.RunSWIMOnce. The full size scales the trace
// generator up to a rack-aware 500-worker cluster.
func swimPreset(size string) swimConfig {
	if size == "smoke" {
		return swimConfig{workers: 7, gen: workload.DefaultSWIMConfig(), horizon: 4 * time.Hour}
	}
	gen := workload.DefaultSWIMConfig()
	gen.Jobs = 15000
	gen.TotalInput = 25 * sim.TB
	gen.MeanInterarrival = 40 * time.Millisecond
	return swimConfig{workers: 500, racks: 25, gen: gen, horizon: 4 * time.Hour}
}

// swimRow is the SWIM workload's canonical output: the figures
// experiments.RunSWIMOnce reports for Table I and Figs. 5-7.
type swimRow struct {
	Jobs             int     `json:"jobs"`
	Done             int     `json:"done"`
	MeanJobSeconds   float64 `json:"mean_job_seconds"`
	MapTasks         int     `json:"map_tasks"`
	MapperMeanSec    float64 `json:"mapper_mean_seconds"`
	MemSampleMean    float64 `json:"mem_sample_mean"`
	PeakMemPerServer int64   `json:"peak_mem_per_server"`
	BytesMigrated    int64   `json:"bytes_migrated"`
	Events           uint64  `json:"events"`
}

// swimRun is the state runSwim's scheduled events share.
type swimRun struct {
	led        *ledger
	eng        *sim.Engine
	fw         *compute.Framework
	peakQueued int
}

// submit repeats compute.Framework.SubmitAt's event body.
func (r *swimRun) submit(spec compute.JobSpec) {
	if r.led != nil {
		if p := r.eng.Pending(); p > r.peakQueued {
			r.peakQueued = p
		}
	}
	r.led.enter(seamSubmit)
	// RunSWIMOnce's completion callback ignores the error under DYRS: a
	// job that failed to submit never finishes, and the rep reports it.
	_, _ = r.fw.Submit(spec)
	r.led.exit()
}

// runSwim repeats experiments.RunSWIMOnce under DYRS: NewEnv's
// environment (here with racks and a larger cluster), node-0
// interference, estimator warm-up, trace generation, input creation,
// timed submissions, a once-a-second memory sampler and the wait for
// every job. It then drains the run so the end-of-run invariants apply.
func runSwim(cfg swimConfig, seed int64, m *meter) (outcome, error) {
	row := &swimRow{}
	out := outcome{row: row, attempted: 1, failed: 1}
	led := m.led
	m.beginSetup()

	eng := sim.NewEngine(seed)
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
	var mgr migration.Manager = coord
	if m.traced() {
		mgr = timedManager{c: coord, led: led}
	}
	fw := compute.New(fs, mgr)
	coord.SetScheduler(fw)
	done, waitCount := 0, 0
	fw.OnJobDone(func(*compute.Job) {
		done++
		if waitCount > 0 && done >= waitCount {
			eng.Stop()
		}
	})

	inf := cl.Node(0).StartInterference(2, 2.5)
	led.enter(seamWarmup)
	err := warmupEstimates(eng, fs, coord)
	led.exit()
	if err != nil {
		return out, err
	}

	led.enter(seamGen)
	jobs := workload.GenerateSWIM(rand.New(rand.NewSource(seed)), cfg.gen)
	led.exit()
	for _, j := range jobs {
		led.enter(seamCreate)
		_, err := fs.CreateFile(j.FileName(), j.InputSize)
		led.exit()
		if err != nil {
			return out, err
		}
	}

	led.enter(seamSchedule)
	run := &swimRun{led: led, eng: eng, fw: fw}
	replayStart := eng.Now()
	for _, wj := range jobs {
		spec := wj.Spec(true)
		eng.At(replayStart.Add(wj.Arrival), func() { run.submit(spec) })
	}
	memSamples := metrics.NewSample()
	var peakMem sim.Bytes
	sampler := sim.NewTicker(eng, time.Second, func() {
		for _, n := range cl.Nodes() {
			used := fs.DataNode(n.ID).MemUsed()
			memSamples.Add(float64(used))
			if used > peakMem {
				peakMem = used
			}
		}
	})
	led.exit()
	m.endSetup()

	if done < len(jobs) {
		waitCount = len(jobs)
		eng.RunUntil(eng.Now().Add(cfg.horizon))
		waitCount = 0
	}
	results := fw.Results()
	mappers := metrics.NewSample()
	jobSecs := 0.0
	for _, j := range results {
		jobSecs += j.Duration().Seconds()
		for _, tr := range j.Tasks {
			mappers.Add(tr.Duration().Seconds())
		}
	}
	row.Jobs = len(jobs)
	row.Done = len(results)
	if len(results) > 0 {
		row.MeanJobSeconds = jobSecs / float64(len(results))
	}
	row.MapTasks = mappers.Len()
	row.MapperMeanSec = mappers.Mean()
	row.MemSampleMean = memSamples.Mean()
	row.PeakMemPerServer = peakMem
	row.BytesMigrated = coord.Stats().BytesMigrated
	row.Events = eng.EventsFired()

	// Beyond RunSWIMOnce: stop every ticker and the interference, drain
	// the queue and scavenge, so nothing may stay buffered.
	sampler.Stop()
	inf.Stop()
	led.enter(seamDrain)
	coord.ScavengeAll()
	coord.Shutdown()
	led.exit()
	eng.Run()
	err = endChecks(fs, coord, led)
	if err == nil && row.Done != row.Jobs {
		err = fmt.Errorf("only %d of %d jobs finished within %v", row.Done, row.Jobs, cfg.horizon)
	}
	m.endSim()
	out.attempted = row.Jobs
	out.failed = row.Jobs - row.Done
	out.events = row.Events
	out.counts = map[string]float64{
		"sim.peak_queue":    float64(run.peakQueued),
		"compute.jobs":      float64(row.Done),
		"compute.map_tasks": float64(row.MapTasks),
	}
	migrationCounts(out.counts, coord, binder, pol)
	readCounts(out.counts, fs)
	flows.report(out.counts)
	if err != nil {
		return out, fmt.Errorf("swim: %w", err)
	}
	return out, nil
}

// warmupEstimates repeats experiments.Env.WarmupEstimates: migrate and
// evict a throwaway file so every slave's estimator reflects the cluster
// before the replay starts.
func warmupEstimates(eng *sim.Engine, fs *dfs.FS, coord *migration.Coordinator) error {
	const warmupJob migration.JobID = 1 << 30
	name := "__estimator_warmup__"
	size := sim.Bytes(3*fs.Cluster().Size()) * fs.Config().BlockSize
	if _, err := fs.CreateFile(name, size); err != nil {
		return err
	}
	if err := coord.Migrate(warmupJob, []string{name}, false); err != nil {
		return err
	}
	eng.RunFor(60 * time.Second)
	coord.Evict(warmupJob)
	return nil
}
