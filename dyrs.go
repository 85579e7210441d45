// Package dyrs is a from-scratch reproduction of "DYRS: Bandwidth-Aware
// Disk-to-Memory Migration of Cold Data in Big-Data File Systems"
// (Dzinamarira, Dinu, Ng — IPDPS 2019).
//
// It bundles a deterministic discrete-event simulation of the whole
// stack the paper builds on — fluid-flow disk and network models, an
// HDFS-like distributed file system, a YARN-like MapReduce scheduler —
// together with the DYRS migration framework itself (delayed binding,
// Algorithm 1 earliest-finish replica targeting, EWMA migration-time
// estimation with in-progress updates, reference-list eviction) and the
// comparison schemes from the evaluation (default HDFS, inputs pinned in
// RAM, Ignem, and a naive balancer).
//
// # Quick start
//
//	env := dyrs.NewEnv(dyrs.PolicyDYRS, dyrs.DefaultOptions(1))
//	defer env.Close()
//	env.CreateInput("logs", 4*dyrs.GB)
//	spec := env.Prepare(dyrs.SortSpec("logs", 8, true))
//	job, _ := env.RunJob(spec) // submit, then run until it finishes
//	fmt.Println("job took", job.Duration())
//
// # Reproducing the paper
//
// One entry point exists per table and figure of the evaluation; see
// RunHive (Fig. 4), RunSWIM (Table I, Figs. 5-7), RunFig8, RunTableII
// (Table II + Fig. 9), RunFig10, RunFig11, and RunTrace (Figs. 1-3).
// The cmd/dyrs-bench binary prints them all. Experiments are registered
// declaratively (Registry) and independent of one another, so RunAllJobs
// runs them on a worker pool with results merged in paper order.
//
// Everything runs in virtual time from seeded randomness: the same seed
// always produces byte-identical results, and a full evaluation pass
// takes seconds of wall-clock time. That reproducibility claim is
// machine-checked: VerifyDeterminism (and dyrs-bench -verify in CI)
// runs every experiment serially and in parallel at the same seed and
// fails if any canonical-JSON hash diverges.
package dyrs

import (
	"dyrs/internal/compute"
	"dyrs/internal/experiments"
	"dyrs/internal/gtrace"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// Byte quantities for sizing inputs.
const (
	KB = sim.KB
	MB = sim.MB
	GB = sim.GB
	TB = sim.TB
)

// Bytes is a data quantity in bytes.
type Bytes = sim.Bytes

// Policy selects a file-system configuration to evaluate.
type Policy = experiments.Policy

// The evaluated configurations (§V-A).
const (
	PolicyHDFS  = experiments.HDFS  // default file system, no migration
	PolicyRAM   = experiments.RAM   // inputs pinned in memory (upper bound)
	PolicyIgnem = experiments.Ignem // random immediate binding
	PolicyDYRS  = experiments.DYRS  // the paper's scheme
	PolicyNaive = experiments.Naive // DYRS minus straggler avoidance
)

// AllPolicies lists the four headline configurations in table order.
var AllPolicies = experiments.AllPolicies

// Env is a fully wired simulated deployment: engine, cluster, DFS,
// optional migration framework, and compute framework.
type Env = experiments.Env

// Options configures an environment's cluster.
type Options = experiments.Options

// JobSpec describes a MapReduce job; Job is a submitted instance.
type (
	JobSpec = compute.JobSpec
	Job     = compute.Job
)

// HiveQuery is one multi-stage analytical query; SWIMJob is one job of
// the trace-based workload.
type (
	HiveQuery = workload.HiveQuery
	SWIMJob   = workload.SWIMJob
)

// NewEnv builds a simulated deployment running the given policy.
func NewEnv(policy Policy, opt Options) *Env { return experiments.NewEnv(policy, opt) }

// DefaultOptions mirrors the paper's 7-worker testbed.
func DefaultOptions(seed int64) Options { return experiments.DefaultOptions(seed) }

// SortSpec builds a Sort job over the named file (§V-B3).
func SortSpec(file string, reducers int, migrate bool) JobSpec {
	return workload.SortSpec(file, reducers, migrate)
}

// TPCDSQueries returns the ten-query Hive suite of §V-B1.
func TPCDSQueries() []HiveQuery { return workload.TPCDSQueries() }

// Experiment entry points — one per table/figure of the evaluation.
var (
	// RunHive reproduces Fig. 4: the ten Hive queries under all four
	// configurations.
	RunHive = experiments.RunHive
	// RunHiveQuery runs a single query under one policy.
	RunHiveQuery = experiments.RunHiveQuery
	// RunSWIM reproduces Table I and Figs. 5-7: the 200-job trace-based
	// workload under all four configurations.
	RunSWIM = experiments.RunSWIM
	// RunSWIMOnce replays the SWIM workload under one policy.
	RunSWIMOnce = experiments.RunSWIMOnce
	// RunFig8 reproduces Fig. 8: per-DataNode read distribution.
	RunFig8 = experiments.RunFig8
	// RunTableII reproduces Table II and Fig. 9: interference patterns.
	RunTableII = experiments.RunTableII
	// RunFig10 reproduces Fig. 10: end-of-migration straggler timelines.
	RunFig10 = experiments.RunFig10
	// RunFig11 reproduces Fig. 11: the size × lead-time sort sweep.
	RunFig11 = experiments.RunFig11
	// RunTrace reproduces Figs. 1-3: the Google-trace motivation
	// analyses.
	RunTrace = experiments.RunTrace
	// RunMotivation reproduces the §I read-speedup micro-comparison
	// (RAM vs disk vs SSD block reads; mapper speedup from pinned
	// inputs).
	RunMotivation = experiments.RunMotivation
	// RunOrderPolicies evaluates the paper's §III future work:
	// alternative migration ordering policies (FIFO/SJF/EDF) with
	// scheduler cooperation.
	RunOrderPolicies = experiments.RunOrderPolicies
	// RunHotCold contrasts a PACMan-like cache with DYRS on a workload
	// mixing hot (repeatedly read) and cold (singly-accessed) data.
	RunHotCold = experiments.RunHotCold
	// RunIterative measures the cold-start penalty of iterative jobs
	// (§I) with and without migration.
	RunIterative = experiments.RunIterative
)

// Registry returns every registered experiment in presentation order;
// Experiment is one registered unit of the evaluation.
var Registry = experiments.Registry

// Experiment is one registered experiment: name, aliases, run func,
// text rendering and JSON merge.
type Experiment = experiments.Experiment

// FullReport aggregates every experiment into one JSON document.
type FullReport = experiments.FullReport

// VerifyReport is the outcome of a determinism check.
type VerifyReport = experiments.VerifyReport

// RunAll executes every registered experiment serially and aggregates
// the results into one report.
var RunAll = experiments.RunAll

// RunAllJobs executes every registered experiment on a worker pool of
// the given size (jobs <= 0 means GOMAXPROCS). The merged report is
// byte-identical at any worker count.
func RunAllJobs(seed int64, jobs int) (*FullReport, error) {
	return experiments.RunAllParallel(seed, jobs, nil)
}

// VerifyDeterminism runs every experiment twice at the same seed —
// serially and on a jobs-wide pool — and reports per-experiment result
// hashes, which diverge only if the determinism contract is broken.
func VerifyDeterminism(seed int64, jobs int) (VerifyReport, error) {
	return experiments.VerifyDeterminism(seed, jobs, nil)
}

// Report types returned by the experiment entry points.
type (
	HiveReport       = experiments.HiveReport
	SWIMReport       = experiments.SWIMReport
	SWIMRun          = experiments.SWIMRun
	Fig8Report       = experiments.Fig8Report
	TableIIReport    = experiments.TableIIReport
	Fig10Report      = experiments.Fig10Report
	Fig11Report      = experiments.Fig11Report
	TraceReport      = experiments.TraceReport
	MotivationReport = experiments.MotivationReport
	OrderReport      = experiments.OrderReport
	HotColdReport    = experiments.HotColdReport
	IterativeReport  = experiments.IterativeReport
)

// Trace is the synthetic Google-cluster trace used by RunTrace.
type Trace = gtrace.Trace
