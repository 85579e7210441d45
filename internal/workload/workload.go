// Package workload defines the three evaluation workloads of the paper —
// TPC-DS-like Hive queries, the SWIM trace-based workload derived from a
// Facebook production cluster, and Sort — plus the disk-interference
// patterns used to create bandwidth heterogeneity (§V-B, §V-C).
//
// The generators are synthetic stand-ins for the proprietary inputs the
// paper used (the TPC-DS dataset rendered to HiveQL, the Facebook SWIM
// trace): they reproduce the published marginals — input size
// distribution, selectivity, inter-arrival scaling — which is what the
// evaluation results depend on.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/sim"
)

// HiveQuery describes one multi-stage analytical query. Stage 1 scans the
// input table and filters aggressively (the SELECT/WHERE selectivity that
// makes the map phase 97% of runtime, §II-A); later stages process the
// shrunken intermediate data.
type HiveQuery struct {
	Name string
	// InputSize is the size of the scanned table.
	InputSize sim.Bytes
	// Stages is the number of MapReduce jobs the query compiles into.
	Stages int
	// Selectivity is the fraction of bytes surviving the stage-1 scan.
	Selectivity float64
	// CompileTime is the Hive query-compilation phase; migration is
	// triggered right after compilation (§IV-B), which in this model
	// means compilation contributes lead-time.
	CompileTime time.Duration
}

// TableName returns the DFS file name holding the query's input table.
func (q HiveQuery) TableName() string { return "table/" + q.Name }

// TPCDSQueries returns the ten-query suite used in §V-B1, with input
// sizes spanning the range a TPC-DS scale-100-ish dataset produces on a
// 7-node cluster and the high map-stage selectivity typical of those
// queries. Queries are returned sorted by input size, matching Fig. 4's
// presentation.
func TPCDSQueries() []HiveQuery {
	sizes := []struct {
		name string
		gb   float64
		sel  float64
		st   int
	}{
		{"q21", 2.0, 0.05, 2},
		{"q43", 3.5, 0.06, 2},
		{"q52", 5.0, 0.04, 2},
		{"q55", 6.5, 0.05, 2},
		{"q63", 8.0, 0.08, 3},
		{"q68", 10.0, 0.06, 3},
		{"q73", 12.5, 0.05, 3},
		{"q98", 16.0, 0.07, 3},
		{"q15", 20.0, 0.03, 2},
		{"q27", 26.0, 0.05, 3},
	}
	out := make([]HiveQuery, len(sizes))
	for i, s := range sizes {
		out[i] = HiveQuery{
			Name:        s.name,
			InputSize:   sim.Bytes(s.gb * float64(sim.GB)),
			Stages:      s.st,
			Selectivity: s.sel,
			CompileTime: 2500 * time.Millisecond,
		}
	}
	return out
}

// StageSpec builds the JobSpec for stage `stage` (0-based) of the query.
// Stage 0 reads the table; stage k reads the (already much smaller)
// output of stage k-1 from the given file. Only stage 0 carries the
// migration request — Hive migrates the tables named in the query.
func (q HiveQuery) StageSpec(stage int, inputFile string) compute.JobSpec {
	spec := compute.JobSpec{
		Name:             fmt.Sprintf("%s-stage%d", q.Name, stage),
		InputFiles:       []string{inputFile},
		MapCPUPerByte:    1.2 / float64(256*sim.MB), // ~1.2s CPU per 256MB block
		MapOutputRatio:   q.Selectivity,
		Reducers:         4,
		OutputRatio:      1.0,
		ReduceCPUPerByte: 0.5 / float64(256*sim.MB),
	}.DefaultOverheads()
	if stage == 0 {
		// The first stage pays the full Hive/Tez/YARN startup: session
		// and container launch, JVM warm-up, AM negotiation. This is the
		// platform-overhead lead-time migration exploits (§II-C1).
		spec.PlatformOverhead = 7 * time.Second
		spec.Migrate = true
		spec.ImplicitEvict = true
		spec.ExtraLeadTime = q.CompileTime
	} else {
		// Later stages reuse containers (cheaper startup) and aggregate
		// rather than filter.
		spec.PlatformOverhead = 2 * time.Second
		spec.MapOutputRatio = 0.8
		spec.Reducers = 2
	}
	return spec
}

// SWIMJob is one job of the trace-based workload: sized (input, shuffle,
// output) and submitted according to the trace (§V-B2).
type SWIMJob struct {
	Name         string
	InputSize    sim.Bytes
	ShuffleRatio float64
	OutputRatio  float64
	// Arrival is the submission offset from the start of the replay.
	Arrival time.Duration
}

// SWIMConfig parameterizes the trace generator.
type SWIMConfig struct {
	// Jobs is the number of jobs to generate (the paper replays 200).
	Jobs int
	// TotalInput is the cumulative input size (170 GB scaled to the
	// 8-node cluster in the paper).
	TotalInput sim.Bytes
	// MeanInterarrival is the mean submission gap after the paper's 75%
	// compression of trace inter-arrival times.
	MeanInterarrival time.Duration
}

// The SWIM trace's size marginals: swimSmallFraction of the jobs read
// at most swimSmallMax (85% read under 64 MB in the Facebook trace),
// and swimLargeMax caps the heavy tail (24 GB in the paper).
const (
	swimSmallFraction = 0.85
	swimSmallMax      = 64 * sim.MB
	swimLargeMax      = 24 * sim.GB
)

// DefaultSWIMConfig reproduces §V-B2's published parameters.
func DefaultSWIMConfig() SWIMConfig {
	return SWIMConfig{
		Jobs:             200,
		TotalInput:       170 * sim.GB,
		MeanInterarrival: 5 * time.Second,
	}
}

// Validate reports the first field of c that GenerateSWIM cannot use,
// by name: fewer than one job, a negative total input, or a negative
// mean interarrival, which would submit jobs before the replay starts.
func (c SWIMConfig) Validate() error {
	switch {
	case c.Jobs < 1:
		return fmt.Errorf("workload: SWIMConfig.Jobs must be at least 1, got %d", c.Jobs)
	case c.TotalInput < 0:
		return fmt.Errorf("workload: SWIMConfig.TotalInput must not be negative, got %d", c.TotalInput)
	case c.MeanInterarrival < 0:
		return fmt.Errorf("workload: SWIMConfig.MeanInterarrival must not be negative, got %v", c.MeanInterarrival)
	}
	return nil
}

// GenerateSWIM synthesizes a trace with the published marginals: 85% of
// jobs read under 64 MB while a few large jobs account for most of the
// bytes, and the whole replay sums to exactly TotalInput. An invalid
// cfg panics with Validate's error; callers taking it from input check
// it first.
func GenerateSWIM(rng *rand.Rand, cfg SWIMConfig) []SWIMJob {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	jobs := make([]SWIMJob, cfg.Jobs)
	sizes := make([]float64, cfg.Jobs)
	var sum float64
	for i := range sizes {
		u := rng.Float64()
		switch {
		case u < swimSmallFraction:
			// Small: log-uniform in [4MB, swimSmallMax].
			lo, hi := math.Log(4*float64(sim.MB)), math.Log(float64(swimSmallMax))
			sizes[i] = math.Exp(lo + rng.Float64()*(hi-lo))
		case u < swimSmallFraction+0.10:
			// Medium: log-uniform in (swimSmallMax, 1GB].
			lo, hi := math.Log(float64(swimSmallMax)), math.Log(float64(sim.GB))
			sizes[i] = math.Exp(lo + rng.Float64()*(hi-lo))
		default:
			// Large: Pareto-ish tail in (1GB, swimLargeMax].
			alpha := 1.1
			x := float64(sim.GB) / math.Pow(rng.Float64(), 1/alpha)
			if x > float64(swimLargeMax) {
				x = float64(swimLargeMax)
			}
			sizes[i] = x
		}
		sum += sizes[i]
	}
	// Scale the large/medium jobs so the total matches TotalInput while
	// small jobs keep their absolute sizes (preserving the 85%-under-64MB
	// marginal).
	var smallSum float64
	for _, s := range sizes {
		if s <= float64(swimSmallMax) {
			smallSum += s
		}
	}
	scale := (float64(cfg.TotalInput) - smallSum) / (sum - smallSum)
	if scale <= 0 {
		scale = 1
	}
	arrival := time.Duration(0)
	for i := range jobs {
		sz := sizes[i]
		if sz > float64(swimSmallMax) {
			sz *= scale
			if sz > float64(swimLargeMax) {
				sz = float64(swimLargeMax)
			}
		}
		if sz < float64(sim.MB) {
			sz = float64(sim.MB)
		}
		jobs[i] = SWIMJob{
			Name:         fmt.Sprintf("swim-%03d", i),
			InputSize:    sim.Bytes(sz),
			ShuffleRatio: 0.05 + 0.45*rng.Float64(),
			OutputRatio:  0.2 + 0.8*rng.Float64(),
			Arrival:      arrival,
		}
		gap := sim.FloatDuration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		arrival += gap
	}
	return jobs
}

// FileName returns the DFS file holding the job's input.
func (j SWIMJob) FileName() string { return "swim/" + j.Name }

// Spec builds the compute.JobSpec for a SWIM job under the given
// migration setting.
func (j SWIMJob) Spec(migrate bool) compute.JobSpec {
	blocks := int((j.InputSize + 256*sim.MB - 1) / (256 * sim.MB))
	reducers := blocks / 4
	if reducers < 1 {
		reducers = 1
	}
	if reducers > 16 {
		reducers = 16
	}
	return compute.JobSpec{
		Name:           j.Name,
		InputFiles:     []string{j.FileName()},
		MapCPUPerByte:  0.8 / float64(256*sim.MB),
		MapOutputRatio: j.ShuffleRatio,
		Reducers:       reducers,
		OutputRatio:    j.OutputRatio,
		// Hadoop-on-YARN job startup — AM launch, container allocation,
		// JVM warm-up — runs to ~10s per job; it dominates small trace
		// jobs (the paper's HDFS average is 31.5s although 85% of jobs
		// read under 64MB) and is the lead-time migration feeds on.
		PlatformOverhead: 9 * time.Second,
		TaskOverhead:     500 * time.Millisecond,
		ReduceCPUPerByte: 0.4 / float64(256*sim.MB),
		Migrate:          migrate,
		ImplicitEvict:    true,
	}.DefaultOverheads()
}

// SortSpec builds a Sort job over the named file: identity map (all input
// shuffled), full-size output (§V-B3).
func SortSpec(file string, reducers int) compute.JobSpec {
	return compute.JobSpec{
		Name:             "sort",
		InputFiles:       []string{file},
		MapCPUPerByte:    0.4 / float64(256*sim.MB),
		MapOutputRatio:   1.0,
		Reducers:         reducers,
		OutputRatio:      1.0,
		ReduceCPUPerByte: 0.6 / float64(256*sim.MB),
		Migrate:          true,
		ImplicitEvict:    true,
	}.DefaultOverheads()
}

// Pattern is a named interference scenario from Table II / Fig. 9.
type Pattern struct {
	Name   string
	Figure string
	// Start applies the pattern to the cluster for the rest of the run.
	Start func(cl *cluster.Cluster)
}

// InterferenceStreams is the number of competing reader streams one
// interference source runs (the paper uses two dd jobs).
const InterferenceStreams = 2

// TableIIPatterns returns the five interference scenarios of Table II,
// applied to the given node ids.
func TableIIPatterns(node1, node2 cluster.NodeID) []Pattern {
	alternate := func(period sim.Duration, twoNodes bool) func(*cluster.Cluster) {
		return func(cl *cluster.Cluster) {
			cluster.StartAlternating(cl.Engine(), cl.Node(node1), InterferenceStreams, 1, period, true)
			if twoNodes {
				cluster.StartAlternating(cl.Engine(), cl.Node(node2), InterferenceStreams, 1, period, false)
			}
		}
	}
	return []Pattern{
		{
			Name:   "Node #1 only: Persistently active",
			Figure: "9a",
			Start: func(cl *cluster.Cluster) {
				cl.Node(node1).StartInterference(InterferenceStreams, 1)
			},
		},
		{Name: "Node #1 only: Alternates every 10s", Figure: "9b", Start: alternate(10*time.Second, false)},
		{Name: "Node #1 only: Alternates every 20s", Figure: "9c", Start: alternate(20*time.Second, false)},
		{Name: "Node #1 and #2: Alternates every 10s", Figure: "9d", Start: alternate(10*time.Second, true)},
		{Name: "Node #1 and #2: Alternates every 20s", Figure: "9e", Start: alternate(20*time.Second, true)},
	}
}

// GrepSpec builds a grep-style scan job: read everything, emit almost
// nothing — the most read-dominated job shape and the best case for
// migration.
func GrepSpec(file string) compute.JobSpec {
	return compute.JobSpec{
		Name:           "grep",
		InputFiles:     []string{file},
		MapCPUPerByte:  0.2 / float64(256*sim.MB),
		MapOutputRatio: 1e-5,
		Reducers:       1,
		OutputRatio:    1,
		Migrate:        true,
		ImplicitEvict:  true,
	}.DefaultOverheads()
}

// WordCountSpec builds a wordcount-style job: moderate CPU, small
// aggregated output.
func WordCountSpec(file string, reducers int) compute.JobSpec {
	return compute.JobSpec{
		Name:             "wordcount",
		InputFiles:       []string{file},
		MapCPUPerByte:    1.5 / float64(256*sim.MB),
		MapOutputRatio:   0.05,
		Reducers:         reducers,
		ReduceCPUPerByte: 0.5 / float64(256*sim.MB),
		OutputRatio:      0.5,
		Migrate:          true,
		ImplicitEvict:    true,
	}.DefaultOverheads()
}

// JoinSpec builds a two-input join: both tables are scanned (and both
// are migrated — compute jobs may read any number of input files), the
// smaller side determines the shuffle volume.
func JoinSpec(left, right string, reducers int) compute.JobSpec {
	return compute.JobSpec{
		Name:             "join",
		InputFiles:       []string{left, right},
		MapCPUPerByte:    0.8 / float64(256*sim.MB),
		MapOutputRatio:   0.3,
		Reducers:         reducers,
		ReduceCPUPerByte: 0.8 / float64(256*sim.MB),
		OutputRatio:      0.6,
		Migrate:          true,
		ImplicitEvict:    true,
	}.DefaultOverheads()
}
