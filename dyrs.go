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
//	env.CreateInput("logs", 4*dyrs.GB)
//	spec := dyrs.SortSpec("logs", 8) // asks for its input; the policy decides
//	job, _ := env.RunJob(spec) // submit, then run until it finishes
//	fmt.Println("job took", job.Duration())
//
// # Reproducing the paper
//
// The cmd/dyrs-bench binary regenerates every table and figure of the
// evaluation (Figs. 1-11, Tables I-II) and the extension studies.
// `dyrs-bench -list` names them; `dyrs-bench -only <name>` runs one,
// e.g. `-only fig8` or `-only table2`.
//
// Everything runs in virtual time from seeded randomness: the same seed
// always produces byte-identical results, and a full evaluation pass
// takes seconds of wall-clock time. That reproducibility claim is
// machine-checked: `dyrs-bench -verify` (run in CI) runs every
// experiment serially and in parallel at the same seed and fails if any
// canonical-JSON hash diverges.
package dyrs

import (
	"dyrs/internal/compute"
	"dyrs/internal/experiments"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// GB is one gibibyte, for sizing inputs.
const GB = sim.GB

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

// NewEnv builds a simulated deployment running the given policy.
func NewEnv(policy Policy, opt experiments.Options) *Env { return experiments.NewEnv(policy, opt) }

// DefaultOptions mirrors the paper's 7-worker testbed.
func DefaultOptions(seed int64) experiments.Options { return experiments.DefaultOptions(seed) }

// SortSpec builds a Sort job over the named file (§V-B3).
func SortSpec(file string, reducers int) compute.JobSpec { return workload.SortSpec(file, reducers) }

// TPCDSQueries returns the ten-query Hive suite of §V-B1.
func TPCDSQueries() []workload.HiveQuery { return workload.TPCDSQueries() }

var (
	// RunHiveQuery runs a single Hive query under one policy (one cell
	// of Fig. 4).
	RunHiveQuery = experiments.RunHiveQuery
	// RunSWIMOnce replays the SWIM workload under one policy (one column
	// of Table I).
	RunSWIMOnce = experiments.RunSWIMOnce
)

// SWIMRun is one policy's SWIM replay, as RunSWIMOnce returns it.
type SWIMRun = experiments.SWIMRun
