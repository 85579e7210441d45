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

// Migrates reports whether the policy runs a migration framework.
func (p Policy) Migrates() bool { return p == DYRS || p == Ignem || p == Naive }

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
	// NodeConfig optionally overrides the per-node hardware config
	// before SlowNodes scaling is applied.
	NodeConfig *cluster.NodeConfig
	// MigrationConfig optionally overrides migration framework tunables.
	MigrationConfig *migration.Config
	// Racks, when >1, partitions the cluster into racks with HDFS-style
	// rack-aware replica placement; CoreBandwidth is the cross-rack core
	// switch capacity in bytes/sec (0 = non-blocking).
	Racks         int
	CoreBandwidth float64
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

// Validate reports the first option NewEnv cannot build a cluster from:
// a negative count, a non-finite or negative core bandwidth, a SlowNodes
// entry outside the cluster or with a scale that is not finite and
// positive, or an unknown MigBinder. Callers that take options from
// users or fuzzers check them here, at the boundary, rather than
// letting them panic or turn into NaN rates inside the layers.
func (opt Options) Validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{{"Workers", opt.Workers}, {"Racks", opt.Racks}, {"SampleEvery", opt.SampleEvery}} {
		if c.v < 0 {
			return fmt.Errorf("experiments: %s must not be negative, got %d", c.name, c.v)
		}
	}
	if math.IsNaN(opt.CoreBandwidth) || math.IsInf(opt.CoreBandwidth, 0) || opt.CoreBandwidth < 0 {
		return fmt.Errorf("experiments: CoreBandwidth must be finite and non-negative, got %v", opt.CoreBandwidth)
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
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
			return fmt.Errorf("experiments: SlowNodes[%d] scale must be finite and positive, got %v", i, scale)
		}
	}
	if opt.MigBinder != "" {
		if _, err := migration.BinderByName(opt.MigBinder); err != nil {
			return fmt.Errorf("experiments: MigBinder: %w", err)
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
		if opt.NodeConfig != nil {
			cfg = *opt.NodeConfig
		}
		if s, ok := opt.SlowNodes[i]; ok {
			cfg.DiskScale = s
		}
		return cfg
	})
	if opt.Racks > 1 {
		cl.ConfigureRacks(opt.Racks, opt.CoreBandwidth)
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

	var mgr migration.Manager = migration.None{}
	var coord *migration.Coordinator
	if pol.Migrates() {
		mcfg := migration.DefaultConfig()
		if opt.MigrationConfig != nil {
			mcfg = *opt.MigrationConfig
		}
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

// Prepare adapts a job spec to the environment's policy: migrating
// policies request migration at submission; HDFS and RAM do not.
func (e *Env) Prepare(spec compute.JobSpec) compute.JobSpec {
	spec.Migrate = e.Policy.Migrates()
	return spec
}

// WaitJob runs the simulation until the job completes or the horizon
// passes. It returns an error on timeout.
func (e *Env) WaitJob(j *compute.Job, horizon sim.Duration) error {
	if j.State == compute.JobDone {
		return nil
	}
	e.waitTarget = j
	defer func() { e.waitTarget = nil }()
	e.Eng.RunUntil(e.Eng.Now().Add(horizon))
	if j.State != compute.JobDone {
		return fmt.Errorf("experiments: job %q did not finish within %v", j.Spec.Name, horizon)
	}
	return nil
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

// Close shuts down background tickers so the environment can be dropped.
func (e *Env) Close() {
	if e.Coord != nil {
		e.Coord.Shutdown()
	}
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

// Hour is a convenient long horizon for WaitJob(s).
const Hour = time.Hour
