// Package experiments assembles full simulated environments and runs the
// paper's evaluation: one entry point per table and figure (Figs. 1-11,
// Tables I-II), each returning typed rows plus a text rendering that
// mirrors the published presentation.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

// Policy selects one of the four file-system configurations compared in
// §V-A, plus the naive balancer used in Fig. 10.
type Policy string

// The evaluated configurations.
const (
	HDFS  Policy = "HDFS"               // default file system, no migration
	RAM   Policy = "HDFS-Inputs-in-RAM" // inputs pinned in memory (upper bound)
	Ignem Policy = "Ignem"              // random immediate binding
	DYRS  Policy = "DYRS"               // the paper's scheme
	Naive Policy = "Naive"              // DYRS minus straggler avoidance
)

// AllPolicies lists the four headline configurations in table order.
var AllPolicies = []Policy{HDFS, RAM, Ignem, DYRS}

// Options configures an experiment environment.
type Options struct {
	// Workers is the number of storage/compute nodes (the paper's
	// testbed has 7 workers plus a master).
	Workers int
	// Seed drives all randomness; identical seeds give identical runs.
	Seed int64
	// SlowNodes maps node index to a disk capacity scale (<1 = slower
	// hardware). Fixed heterogeneity, as opposed to interference.
	SlowNodes map[int]float64
	// MigrationConfig optionally overrides migration framework tunables.
	MigrationConfig *migration.Config
	// Racks, when >1, partitions the cluster into racks with HDFS-style
	// rack-aware replica placement behind a non-blocking core switch.
	Racks int
	// Trace attaches a trace.Tracer to the run so migrations, reads and
	// tasks record spans; retrieve it with Env.Tracer.
	Trace bool
	// SampleEvery, when >1 (and Trace is on), keeps 1-in-N root spans
	// and instants via the tracer's deterministic sampler; counters and
	// histograms stay exact. The keep decision hashes the seed, category,
	// node and per-node ordinal, so the sampled trace is byte-identical
	// run to run.
	SampleEvery int
	// MigBinder, when non-empty and the policy migrates, overrides the
	// binder backing the coordinator with a migrating internal/policy
	// name ("dyrs", "ignem", "costaware"). The migration Config stays
	// whatever the experiment Policy selects, so the override is a pure
	// binder swap.
	MigBinder string
}

// magnitudeRange bounds the rate factors and weights Validate accepts to
// [1/magnitudeRange, magnitudeRange]: a SlowNodes scale and a positive
// IOWeight. At the low end a 130 MB/s disk moves about one byte in the
// clock's 292-year range, so nothing slower can be told apart from it;
// past the range a resource's finish-time arithmetic could leave
// float64 and reach a timer as ±Inf, where an overlong transfer must
// saturate the clock.
const magnitudeRange = 1e18

func inMagnitudeRange(v float64) bool { return v >= 1/magnitudeRange && v <= magnitudeRange }

// Validate reports the first option NewEnv cannot build a cluster from:
// a negative count, a SlowNodes entry outside the cluster or with a scale
// outside magnitudeRange, an unknown MigBinder, or a MigrationConfig
// with a non-positive Heartbeat or TargetUpdateInterval, an IOWeight
// that is NaN, -Inf or positive and outside magnitudeRange (a
// non-positive one means weight 1), a negative MaxConcurrent (zero
// means one) or an Order that names no policy. Callers that take
// options from users or fuzzers check them here, at the boundary,
// rather than letting them panic or turn into NaN rates inside the
// layers.
func (opt Options) Validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{{"Workers", opt.Workers}, {"Racks", opt.Racks}, {"SampleEvery", opt.SampleEvery}} {
		if c.v < 0 {
			return fmt.Errorf("experiments: %s must not be negative, got %d", c.name, c.v)
		}
	}
	workers := opt.Workers
	if workers == 0 {
		workers = DefaultOptions(0).Workers
	}
	nodes := make([]int, 0, len(opt.SlowNodes))
	for i := range opt.SlowNodes {
		nodes = append(nodes, i)
	}
	sort.Ints(nodes) // report the lowest bad index, whatever the map order
	for _, i := range nodes {
		scale := opt.SlowNodes[i]
		if i < 0 || i >= workers {
			return fmt.Errorf("experiments: SlowNodes index %d outside the %d-node cluster", i, workers)
		}
		if !inMagnitudeRange(scale) {
			return fmt.Errorf("experiments: SlowNodes[%d] scale must be within [%g, %g], got %v", i, 1/magnitudeRange, magnitudeRange, scale)
		}
	}
	if opt.MigBinder != "" {
		if _, err := migration.BinderByName(opt.MigBinder); err != nil {
			return fmt.Errorf("experiments: MigBinder: %w", err)
		}
	}
	if c := opt.MigrationConfig; c != nil {
		if c.Heartbeat <= 0 {
			return fmt.Errorf("experiments: MigrationConfig.Heartbeat must be positive, got %v", c.Heartbeat)
		}
		if c.TargetUpdateInterval <= 0 {
			return fmt.Errorf("experiments: MigrationConfig.TargetUpdateInterval must be positive, got %v", c.TargetUpdateInterval)
		}
		if w := c.IOWeight; math.IsNaN(w) || math.IsInf(w, -1) || (w > 0 && !inMagnitudeRange(w)) {
			return fmt.Errorf("experiments: MigrationConfig.IOWeight must be non-positive or within [%g, %g], got %v", 1/magnitudeRange, magnitudeRange, w)
		}
		if c.MaxConcurrent < 0 {
			return fmt.Errorf("experiments: MigrationConfig.MaxConcurrent must not be negative, got %d", c.MaxConcurrent)
		}
		if c.Order < migration.OrderFIFO || c.Order > migration.OrderEDF {
			return fmt.Errorf("experiments: MigrationConfig.Order must be FIFO, SJF or EDF, got %d", int(c.Order))
		}
	}
	return nil
}

// DefaultOptions mirrors the paper's 7-worker testbed.
func DefaultOptions(seed int64) Options {
	return Options{Workers: 7, Seed: seed}
}

// Env is one fully wired simulated deployment: engine, cluster, DFS,
// optional migration framework, and the compute framework.
type Env struct {
	Policy Policy
	Eng    *sim.Engine
	Cl     *cluster.Cluster
	FS     *dfs.FS
	Coord  *migration.Coordinator // nil for HDFS and RAM
	FW     *compute.Framework

	doneCount  int
	waitTarget *compute.Job
	waitCount  int
}

// NewEnv builds an environment for the given policy.
func NewEnv(pol Policy, opt Options) *Env {
	if opt.Workers <= 0 {
		opt.Workers = 7
	}
	eng := sim.NewEngine(opt.Seed)
	if opt.Trace {
		// Attach before any component constructs: they capture the run's
		// tracer once at construction time.
		tr := trace.New(eng)
		tr.SetSampling(opt.SampleEvery, uint64(opt.Seed))
	}
	cl := cluster.New(eng, opt.Workers, func(i int) cluster.NodeConfig {
		cfg := cluster.DefaultNodeConfig()
		if s, ok := opt.SlowNodes[i]; ok {
			cfg.DiskScale = s
		}
		return cfg
	})
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, 0)
	}
	if tr := trace.FromEngine(eng); tr.Enabled() {
		rackOf := make([]int, opt.Workers)
		for i := range rackOf {
			rackOf[i] = cl.Rack(cluster.NodeID(i))
		}
		tr.SetTopology(rackOf)
	}
	fsCfg := dfs.DefaultConfig()
	if fsCfg.Replication > opt.Workers {
		fsCfg.Replication = opt.Workers
	}
	fs := dfs.New(cl, fsCfg)

	mcfg := migration.DefaultConfig()
	if opt.MigrationConfig != nil {
		mcfg = *opt.MigrationConfig
	}
	// The policy picks a binder exactly when it migrates; HDFS and RAM
	// keep migration.None, so their jobs' migrate requests move nothing.
	var binder migration.Binder
	switch pol {
	case DYRS:
		binder = migration.NewDYRSBinder()
	case Ignem:
		binder = migration.NewPolicyBinder(policy.NewIgnem())
		// Ignem binds blindly at submission and never reconsiders —
		// it has no missed-read handling (§VI), copies at full IO
		// priority, and mlocks every bound block at once instead of
		// serializing migrations the way DYRS does (§III-B).
		mcfg.CancelOnMissedRead = false
		mcfg.IOWeight = 1.0
		mcfg.MaxConcurrent = 6
	case Naive:
		binder = migration.NewNaiveBinder()
	}
	var mgr migration.Manager = migration.None{}
	var coord *migration.Coordinator
	if binder != nil {
		if opt.MigBinder != "" {
			b, err := migration.BinderByName(opt.MigBinder)
			if err != nil {
				// Misconfiguration, not a runtime condition: callers (the
				// fuzz driver, tests) validate flag values up front.
				panic(err)
			}
			binder = b
		}
		coord = migration.NewCoordinator(fs, mcfg, binder)
		mgr = coord
	}
	fw := compute.New(fs, mgr)
	if coord != nil {
		coord.SetScheduler(fw)
	}
	e := &Env{Policy: pol, Eng: eng, Cl: cl, FS: fs, Coord: coord, FW: fw}
	fw.OnJobDone(func(j *compute.Job) {
		e.doneCount++
		if (e.waitTarget != nil && j == e.waitTarget) ||
			(e.waitCount > 0 && e.doneCount >= e.waitCount) {
			eng.Stop()
		}
	})
	return e
}

// Tracer returns the run's tracer, or nil when Options.Trace was off.
// The nil result is safe to use: trace methods no-op on nil.
func (e *Env) Tracer() *trace.Tracer { return trace.FromEngine(e.Eng) }

// CreateInput creates a DFS file and, under the RAM policy, pins it in
// memory up front (the vmtouch step of §V-A).
func (e *Env) CreateInput(name string, size sim.Bytes) error {
	if _, err := e.FS.CreateFile(name, size); err != nil {
		return err
	}
	if e.Policy == RAM {
		if _, err := migration.PinFiles(e.FS, []string{name}); err != nil {
			return err
		}
	}
	return nil
}

// RunJob submits spec and runs the simulation until the job completes,
// failing if it is still running an Hour of virtual time later. The job
// is returned whenever it was submitted, finished or not.
func (e *Env) RunJob(spec compute.JobSpec) (*compute.Job, error) {
	j, err := e.FW.Submit(spec)
	if err != nil || j.State == compute.JobDone {
		return j, err
	}
	e.waitTarget = j
	e.Eng.RunUntil(e.Eng.Now().Add(Hour))
	e.waitTarget = nil
	if j.State != compute.JobDone {
		return j, fmt.Errorf("experiments: job %q did not finish within %v", spec.Name, Hour)
	}
	return j, nil
}

// RunSort runs the paper's Sort benchmark (§V-B3): it creates a
// size-byte input and runs one Sort job over it, with two reducers per
// node and lead inserted lead-time. Callers warm the estimators
// (WarmupEstimates) first, as every run of the evaluation does.
func (e *Env) RunSort(size sim.Bytes, lead sim.Duration) (*compute.Job, error) {
	if err := e.CreateInput("sort-input", size); err != nil {
		return nil, err
	}
	spec := workload.SortSpec("sort-input", 2*e.Cl.Size())
	spec.ExtraLeadTime = lead
	return e.RunJob(spec)
}

// WaitJobs runs the simulation until n jobs have completed in total or
// the horizon passes.
func (e *Env) WaitJobs(n int, horizon sim.Duration) error {
	if e.doneCount >= n {
		return nil
	}
	e.waitCount = n
	defer func() { e.waitCount = 0 }()
	e.Eng.RunUntil(e.Eng.Now().Add(horizon))
	if e.doneCount < n {
		return fmt.Errorf("experiments: only %d of %d jobs finished within %v", e.doneCount, n, horizon)
	}
	return nil
}

// WarmupEstimates migrates (and then evicts) a scratch file so every
// slave's migration-time estimator reflects current cluster conditions
// before the measured workload starts. This mimics a long-running
// production deployment, where DYRS "uses past migrations to estimate how
// long future migrations will take" (§III-A2) — in the paper's testbed
// the estimators carry history from preceding runs.
func (e *Env) WarmupEstimates() error {
	if e.Coord == nil {
		return nil
	}
	const warmupJob migration.JobID = 1 << 30
	name := "__estimator_warmup__"
	size := sim.Bytes(3*e.Cl.Size()) * e.FS.Config().BlockSize
	if _, err := e.FS.CreateFile(name, size); err != nil {
		return err
	}
	if err := e.Coord.Migrate(warmupJob, []string{name}, false); err != nil {
		return err
	}
	e.Eng.RunFor(60 * time.Second)
	e.Coord.Evict(warmupJob)
	return nil
}

// SlowNodeInterference starts the paper's dd-style persistent
// interference on the given node and returns a stop function (§V-C).
// Two O_DIRECT dd readers issuing large sequential requests get generous
// scheduler quanta, so each carries more fair-share weight than a task
// read stream.
func (e *Env) SlowNodeInterference(node cluster.NodeID) func() {
	inf := e.Cl.Node(node).StartInterference(2, 2.5)
	return inf.Stop
}

// Hour is RunJob's horizon, and a convenient long one for WaitJobs.
const Hour = time.Hour
