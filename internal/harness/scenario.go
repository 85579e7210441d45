// Package harness is the randomized scenario-fuzzing harness: a seeded
// generator draws whole-cluster scenarios — topology, a mixed workload,
// and a fault schedule — and an oracle battery checks every run against
// properties that must hold for ANY scenario:
//
//  1. structural: dfs.Fsck reports no catalog / replica / accounting
//     violation at the end of the run;
//  2. conservation: the migration framework's Stats agree with the
//     trace counters and span tallies, and no buffered byte survives
//     the post-run drain;
//  3. liveness: every submitted job completes within the horizon and
//     the migration pipeline drains (no pending or queued leftovers);
//  4. metamorphic: the same scenario under plain HDFS (no migration)
//     completes exactly the same set of jobs — migration may only
//     change speed, never outcomes (§III-C: "the only adverse effect
//     is the loss of the speedup");
//  5. determinism: running the identical scenario twice produces
//     byte-identical canonical traces (same hash), identical stats and
//     identical completion sets.
//
// On failure the harness shrinks the scenario — dropping faults, then
// jobs, while the same oracle keeps failing — and prints a one-line
// `dyrs-fuzz -seed N -repro ...` reproduction command.
package harness

import (
	"fmt"
	"math/rand"
	"time"

	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// JobKind enumerates the workload shapes the generator mixes.
type JobKind int

// The generated job kinds (mirroring internal/workload's spec builders).
const (
	KindSort JobKind = iota
	KindGrep
	KindWordCount
	KindJoin
	KindHiveScan // stage-0 Hive table scan: long lead time, implicit evict
	numJobKinds
)

func (k JobKind) String() string {
	switch k {
	case KindSort:
		return "sort"
	case KindGrep:
		return "grep"
	case KindWordCount:
		return "wordcount"
	case KindJoin:
		return "join"
	case KindHiveScan:
		return "hive-scan"
	}
	return fmt.Sprintf("JobKind(%d)", int(k))
}

// JobSpec is one generated job: a workload shape over one (or, for
// joins, two) generated input files, submitted at a scenario-relative
// time with a chosen extra lead time (the window migration feeds on).
type JobSpec struct {
	Kind     JobKind
	Name     string
	File     string
	Size     sim.Bytes
	File2    string    // join only
	Size2    sim.Bytes // join only
	Reducers int
	Lead     time.Duration
	Submit   time.Duration
}

// FaultKind enumerates the injected failures.
type FaultKind int

// The fault classes of §III-C plus disk interference (§V-C).
const (
	// FaultSlaveRestart crashes and restarts the migration slave process
	// on Node: buffers and queued work are lost (§III-C2).
	FaultSlaveRestart FaultKind = iota
	// FaultMasterRestart fails over the migration master: reference
	// lists and pending state are lost (§III-C1).
	FaultMasterRestart
	// FaultNodeDeath kills the whole node (machine failure). The
	// schedule guards at fire time so at least four nodes stay alive.
	FaultNodeDeath
	// FaultInterference runs Streams competing readers of the given
	// Weight on Node's disk for Dur (the dd interference of §V-C).
	FaultInterference
	numFaultKinds
)

func (k FaultKind) String() string {
	switch k {
	case FaultSlaveRestart:
		return "slave-restart"
	case FaultMasterRestart:
		return "master-restart"
	case FaultNodeDeath:
		return "node-death"
	case FaultInterference:
		return "interference"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled failure injection.
type Fault struct {
	Kind    FaultKind
	At      time.Duration
	Node    int           // target node (ignored for master restart)
	Dur     time.Duration // interference duration
	Streams int           // interference streams
	Weight  float64       // interference per-stream weight
}

// Scenario is one fully specified randomized run. Scenarios are pure
// data: generating one touches no simulation state, so the same
// Scenario can be executed under different policies (metamorphic
// oracle) or repeatedly (determinism oracle).
type Scenario struct {
	Seed int64
	// Large marks a datacenter-shaped draw (see generate); recorded
	// so repro lines regenerate from the right envelope.
	Large   bool
	Workers int
	// Racks, when >1, partitions the workers into racks with rack-aware
	// replica placement (large topologies only; 0 = flat network).
	Racks int
	// Policy names the migration binder the migrating oracle runs use: a
	// migrating internal/policy name ("dyrs", "ignem", "costaware").
	// Empty means "dyrs". Set by dyrs-fuzz -policy, never drawn by
	// generate, so repro masks stay stable and carry the policy
	// explicitly.
	Policy string
	// Serving marks a serving-workload scenario (see GenerateServing):
	// instead of compute jobs, the run drives ServingSpec's open-loop
	// multi-tenant read stream through the coordinated cache, with the
	// migrating policy prefetching the popularity head per epoch. The
	// oracle battery swaps job completion for request service: every
	// issued request must be served, and DYRS vs HDFS must serve the
	// same count.
	Serving     bool
	ServingSpec workload.ServingSpec
	// SlowNodes scales the disk bandwidth of fixed-slow hardware
	// (node index -> scale < 1).
	SlowNodes map[int]float64
	// Heartbeats enables the NameNode liveness protocol, so node deaths
	// exercise the stale-view failover path.
	Heartbeats bool
	Jobs       []JobSpec
	Faults     []Fault
	// Horizon bounds the whole run; exceeding it is a liveness failure.
	Horizon time.Duration
}

// Validate reports the first field RunScenario cannot execute: fewer
// than one worker, or a fault scheduled before time zero or aimed at a
// negative node. Generated scenarios always pass; the check guards
// hand-built and mutated ones at the boundary instead of letting them
// panic inside the engine or the fault schedule.
func (sc Scenario) Validate() error {
	if sc.Workers < 1 {
		return fmt.Errorf("harness: Workers must be at least 1, got %d", sc.Workers)
	}
	for i, f := range sc.Faults {
		if f.At < 0 {
			return fmt.Errorf("harness: fault %d (%v) at negative time %v", i, f.Kind, f.At)
		}
		if f.Node < 0 {
			return fmt.Errorf("harness: fault %d (%v) targets negative node %d", i, f.Kind, f.Node)
		}
	}
	return nil
}

// String renders a compact one-line description for failure reports.
func (sc Scenario) String() string {
	size := ""
	if sc.Large {
		size = fmt.Sprintf(" large racks=%d", sc.Racks)
	}
	pol := ""
	if sc.Policy != "" {
		pol = " policy=" + sc.Policy
	}
	if sc.Serving {
		return fmt.Sprintf("seed=%d serving workers=%d%s slow=%d files=%d rate=%.1f/s faults=%d hb=%v",
			sc.Seed, sc.Workers, pol, len(sc.SlowNodes),
			sc.ServingSpec.Files, sc.ServingSpec.MeanRate, len(sc.Faults), sc.Heartbeats)
	}
	return fmt.Sprintf("seed=%d workers=%d%s%s slow=%d jobs=%d faults=%d hb=%v",
		sc.Seed, sc.Workers, size, pol, len(sc.SlowNodes), len(sc.Jobs), len(sc.Faults), sc.Heartbeats)
}

// generate draws the batch scenario for a seed. The testbed envelope
// (large false) has 5-8 workers, the paper's scale. The large envelope
// is datacenter-shaped: 64-256 workers in 4-16 racks, more jobs, more
// faults (including multiple node deaths). It exercises the paths
// testbed scenarios cannot — rack-aware replica placement, the per-rack
// replica indexes, and scale-dependent binder behaviour — under the
// same five oracles, and is drawn from an independent stream, so large
// seed N is unrelated to small seed N. The large envelope only widens
// ranges; the structure (hardware, workload, fault schedule) is
// identical, so shrinking and repro masks work the same way in both
// modes. The draw is deterministic: the same seed always yields a
// deeply equal Scenario, which is what makes the keep-mask repro
// encoding (see Repro) stable.
func generate(seed int64, large bool) Scenario {
	rng := rand.New(rand.NewSource(seed))
	if large {
		// Decouple the large stream from the small one so sweeping the
		// same seed range in both modes doesn't correlate the draws.
		rng = rand.New(rand.NewSource(seed ^ 0x1a56e))
	}
	sc := Scenario{
		Seed:    seed,
		Large:   large,
		Workers: 5 + rng.Intn(4), // 5..8, always enough for 3-way replication
		Horizon: time.Hour,
	}
	maxSlow, maxJobs, maxDeaths, maxFaults := 2, 5, 1, 4
	if large {
		sc.Workers = 64 + rng.Intn(193) // 64..256
		sc.Racks = []int{4, 8, 16}[rng.Intn(3)]
		sc.Horizon = 2 * time.Hour
		maxSlow = sc.Workers / 8
		maxJobs = 12
		maxDeaths = 3
		maxFaults = 6
	}

	// Fixed hardware heterogeneity: a few slower disks.
	if n := rng.Intn(maxSlow + 1); n > 0 {
		sc.SlowNodes = make(map[int]float64)
		for i := 0; i < n; i++ {
			sc.SlowNodes[rng.Intn(sc.Workers)] = 0.3 + 0.5*rng.Float64()
		}
	}
	sc.Heartbeats = rng.Intn(2) == 0

	// Workload: jobs of mixed shapes, 256 MB .. ~2 GB inputs, spread
	// over the first half minute (large: first two minutes).
	submitSpread, minJobs := 31, 2
	if large {
		submitSpread, minJobs = 121, 6
	}
	njobs := minJobs + rng.Intn(maxJobs-minJobs+1)
	for i := 0; i < njobs; i++ {
		j := JobSpec{
			Kind:     JobKind(rng.Intn(int(numJobKinds))),
			Name:     fmt.Sprintf("fz-%d", i),
			File:     fmt.Sprintf("fuzz/in-%d", i),
			Size:     sim.Bytes(1+rng.Intn(8)) * 256 * sim.MB,
			Reducers: 1 + rng.Intn(6),
			Lead:     time.Duration(2+rng.Intn(7)) * time.Second,
			Submit:   time.Duration(rng.Intn(submitSpread)) * time.Second,
		}
		if j.Kind == KindJoin {
			j.File2 = fmt.Sprintf("fuzz/in-%d-right", i)
			j.Size2 = sim.Bytes(1+rng.Intn(4)) * 256 * sim.MB
		}
		sc.Jobs = append(sc.Jobs, j)
	}

	// Faults, in the window the workload is active. Node deaths are
	// bounded per scenario (the runtime guard additionally refuses to
	// drop below four live nodes).
	nfaults := rng.Intn(maxFaults + 1)
	deaths := 0
	for i := 0; i < nfaults; i++ {
		f := Fault{
			Kind: FaultKind(rng.Intn(int(numFaultKinds))),
			At:   time.Duration(2+rng.Intn(59)) * time.Second,
			Node: rng.Intn(sc.Workers),
		}
		if f.Kind == FaultNodeDeath && deaths >= maxDeaths {
			f.Kind = FaultSlaveRestart
		}
		if f.Kind == FaultNodeDeath {
			deaths++
		}
		if f.Kind == FaultInterference {
			f.Dur = time.Duration(5+rng.Intn(26)) * time.Second
			f.Streams = 1 + rng.Intn(2)
			f.Weight = 1 + 1.5*rng.Float64()
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}

// GenerateServing draws a serving-workload scenario: a testbed-scale
// cluster serving an open-loop Zipf/diurnal multi-tenant read stream
// (see internal/workload's serving draw), with the usual hardware
// heterogeneity and fault schedule. Deterministic per seed, drawn from
// an independent stream so serving seed N is unrelated to the job
// envelopes' seed N. The request stream itself is regenerated inside
// the run from ServingSpec+Seed, so a serving Scenario stays pure data.
func GenerateServing(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x53e1))
	spec := workload.DefaultServingSpec()
	spec.Files = 12 + rng.Intn(21)        // 12..32
	spec.BlocksPerFile = 2 + rng.Intn(3)  // 2..4
	spec.ZipfS = 0.9 + 0.4*rng.Float64()  // 0.9..1.3
	spec.MeanRate = 1.5 + 2*rng.Float64() // 1.5..3.5 req/s (below saturation)
	spec.DiurnalAmp = 0.8 * rng.Float64()
	spec.PeakPhase = rng.Float64()
	spec.Horizon = 3 * time.Minute
	sc := Scenario{
		Seed:        seed,
		Serving:     true,
		ServingSpec: spec,
		Workers:     5 + rng.Intn(4),
		Horizon:     spec.Horizon + 3*time.Minute,
	}
	if n := rng.Intn(3); n > 0 {
		sc.SlowNodes = make(map[int]float64)
		for i := 0; i < n; i++ {
			sc.SlowNodes[rng.Intn(sc.Workers)] = 0.3 + 0.5*rng.Float64()
		}
	}
	sc.Heartbeats = rng.Intn(2) == 0

	// Faults land in the first half of the serving day; at most one node
	// death (the runtime guard additionally keeps four nodes alive).
	nfaults := rng.Intn(4)
	deaths := 0
	for i := 0; i < nfaults; i++ {
		f := Fault{
			Kind: FaultKind(rng.Intn(int(numFaultKinds))),
			At:   time.Duration(2+rng.Intn(89)) * time.Second,
			Node: rng.Intn(sc.Workers),
		}
		if f.Kind == FaultNodeDeath {
			if deaths >= 1 {
				f.Kind = FaultSlaveRestart
			}
			deaths++
		}
		if f.Kind == FaultInterference {
			f.Dur = time.Duration(5+rng.Intn(26)) * time.Second
			f.Streams = 1 + rng.Intn(2)
			f.Weight = 1 + 1.5*rng.Float64()
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}
