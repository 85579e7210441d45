package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/experiments"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

// RunResult is everything the oracles inspect about one executed
// scenario. It contains only simulation-derived values (no wall-clock,
// no map-ordered data), so two runs of the same scenario must produce
// deeply equal results.
type RunResult struct {
	Policy    experiments.Policy
	Submitted int
	// Completed lists the names of jobs that reached JobDone, sorted.
	Completed []string
	// RequestsIssued/RequestsServed count the open-loop serving stream
	// (serving scenarios only; zero otherwise). Serving liveness demands
	// they match, and the metamorphic oracle demands HDFS serves the
	// same count.
	RequestsIssued, RequestsServed int
	// SubmitErrors records synchronous submission failures.
	SubmitErrors []string
	// CheckpointFsck aggregates Fsck violations observed mid-run (one
	// second after each fault) with their virtual timestamps.
	CheckpointFsck []string
	// FinalFsck holds Fsck violations after the post-run drain.
	FinalFsck []string

	// End-of-run memory state, after eviction drain plus ScavengeAll.
	MemUsedEnd     sim.Bytes
	MemReplicasEnd int

	// Migration pipeline leftovers after the drain.
	PendingEnd, QueuedEnd int

	// Stats is the coordinator's counter snapshot (zero for HDFS/RAM).
	Stats migration.Stats
	// Counters is the tracer's counter registry.
	Counters map[string]int64
	// Span tallies over cat=migration name=migrate root spans.
	MigrateSpans, PinnedSpans, DroppedSpans, OpenSpans int
	// ReadSpanBytes sums the size attribute of completed read spans.
	ReadSpanBytes int64

	// InputBytes sums the created input file sizes.
	InputBytes sim.Bytes
	// TraceHash is the sha256 of the canonical trace JSON.
	TraceHash string
	// EndTime is the virtual clock when the run finished draining.
	EndTime sim.Time
	// Flight is the tail of the run's trace activity (bounded ring),
	// dumped as a diagnosis artifact when an oracle fails.
	Flight []trace.FlightEvent
}

// buildSpec maps a generated JobSpec onto a concrete compute.JobSpec.
func buildSpec(j JobSpec) compute.JobSpec {
	var spec compute.JobSpec
	switch j.Kind {
	case KindSort:
		spec = workload.SortSpec(j.File, j.Reducers)
	case KindGrep:
		spec = workload.GrepSpec(j.File)
	case KindWordCount:
		spec = workload.WordCountSpec(j.File, j.Reducers)
	case KindJoin:
		spec = workload.JoinSpec(j.File, j.File2, j.Reducers)
	case KindHiveScan:
		q := workload.HiveQuery{
			Name:        j.Name,
			InputSize:   j.Size,
			Stages:      1,
			Selectivity: 0.05,
			CompileTime: j.Lead,
		}
		spec = q.StageSpec(0, j.File)
	}
	if j.Kind != KindHiveScan {
		spec.ExtraLeadTime = j.Lead
	}
	spec.Name = j.Name
	return spec
}

// RunScenario executes the scenario under the given policy and returns
// the oracle-relevant observations. It never fails the process: every
// anomaly (timeouts, submission errors, fsck violations) is recorded in
// the result for the oracles to judge.
func RunScenario(sc Scenario, policy experiments.Policy) *RunResult {
	if sc.Serving {
		return runServingScenario(sc, policy)
	}
	res := &RunResult{Policy: policy, Submitted: len(sc.Jobs)}
	env, err := newScenarioEnv(sc, policy)
	if err != nil {
		res.SubmitErrors = append(res.SubmitErrors, err.Error())
		return res
	}
	if sc.Heartbeats {
		env.FS.EnableHeartbeats()
	}

	// Inputs.
	for _, j := range sc.Jobs {
		if err := env.CreateInput(j.File, j.Size); err != nil {
			res.SubmitErrors = append(res.SubmitErrors, err.Error())
			continue
		}
		res.InputBytes += j.Size
		if j.Kind == KindJoin {
			if err := env.CreateInput(j.File2, j.Size2); err != nil {
				res.SubmitErrors = append(res.SubmitErrors, err.Error())
				continue
			}
			res.InputBytes += j.Size2
		}
	}

	// Workload.
	for _, j := range sc.Jobs {
		spec := buildSpec(j)
		env.FW.SubmitAt(sim.Time(j.Submit), spec, func(_ *compute.Job, err error) {
			if err != nil {
				res.SubmitErrors = append(res.SubmitErrors,
					fmt.Sprintf("%s: %v", j.Name, err))
			}
		})
	}

	scheduleFaults(env, sc, res)

	// Run to completion (or horizon), then drain: give in-flight
	// migrations and evictions time to settle, then force a scavenging
	// pass so orphaned buffers are reclaimed deterministically.
	_ = env.WaitJobs(len(sc.Jobs), sim.Duration(sc.Horizon))
	env.Eng.RunFor(90 * time.Second)
	if env.Coord != nil {
		env.Coord.ScavengeAll()
	}
	env.Eng.RunFor(10 * time.Second)

	// Observations.
	for _, j := range env.FW.Results() {
		if j.State == compute.JobDone {
			res.Completed = append(res.Completed, j.Spec.Name)
		}
	}
	sort.Strings(res.Completed)
	observeRun(env, res)
	return res
}

// newScenarioEnv builds the traced environment for a scenario run, with
// the flight recorder armed so a failing scenario leaves its last
// moments behind. Sampling stays off: the span-tally oracles need the
// full trace. A scenario or options that fail Validate are returned as
// an error, which the caller records like a submission failure.
func newScenarioEnv(sc Scenario, policy experiments.Policy) (*experiments.Env, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opt := experiments.Options{
		Workers:   sc.Workers,
		Racks:     sc.Racks,
		Seed:      sc.Seed,
		SlowNodes: sc.SlowNodes,
		Trace:     true,
		MigBinder: sc.Policy,
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	env := experiments.NewEnv(policy, opt)
	env.Tracer().SetFlightRecorder(512)
	return env, nil
}

// scheduleFaults enqueues the scenario's fault schedule, with a
// structural fsck checkpoint one second after each fault.
func scheduleFaults(env *experiments.Env, sc Scenario, res *RunResult) {
	for _, f := range sc.Faults {
		f := f
		env.Eng.At(sim.Time(f.At), func() {
			node := cluster.NodeID(f.Node % sc.Workers)
			switch f.Kind {
			case FaultSlaveRestart:
				if env.Coord != nil {
					env.Coord.RestartSlaveProcess(node)
				}
			case FaultMasterRestart:
				if env.Coord != nil {
					env.Coord.RestartMaster()
				}
			case FaultNodeDeath:
				// Keep at least four nodes alive so 3-way replication
				// always leaves a readable copy.
				if env.Cl.Node(node).Alive() && len(env.Cl.AliveNodes()) > 4 {
					env.Cl.KillNode(node)
					if env.Coord != nil {
						// Its buffers and queued work die with it.
						env.Coord.RestartSlaveProcess(node)
					}
				}
			case FaultInterference:
				if !env.Cl.Node(node).Alive() {
					return
				}
				inf := env.Cl.Node(node).StartInterference(f.Streams, f.Weight)
				env.Eng.Schedule(sim.Duration(f.Dur), inf.Stop)
			}
		})
		env.Eng.At(sim.Time(f.At+time.Second), func() {
			for _, err := range env.FS.Fsck() {
				res.CheckpointFsck = append(res.CheckpointFsck,
					fmt.Sprintf("t=%v after %v: %v", env.Eng.Now(), f.Kind, err))
			}
		})
	}
}

// observeRun fills the oracle-relevant end-of-run observations shared
// by the job and serving paths: fsck, memory state, migration stats,
// counters, span tallies and the canonical trace hash.
func observeRun(env *experiments.Env, res *RunResult) {
	res.FinalFsck = nil
	for _, err := range env.FS.Fsck() {
		res.FinalFsck = append(res.FinalFsck, err.Error())
	}
	res.MemUsedEnd = env.FS.TotalMemUsed()
	res.MemReplicasEnd = env.FS.MemReplicaCount()
	if env.Coord != nil {
		res.Stats = env.Coord.Stats()
		res.PendingEnd = env.Coord.PendingBlocks()
		res.QueuedEnd = env.Coord.QueuedBlocks()
	}

	tr := env.Tracer()
	res.Counters = tr.Counters()
	for _, s := range tr.Spans() {
		switch cat, name := tr.Label(s.Label()); {
		case cat == "migration" && name == "migrate":
			res.MigrateSpans++
			switch tr.Attr(s.Attrs(), "outcome") {
			case "pinned":
				res.PinnedSpans++
			case "dropped":
				res.DroppedSpans++
			default:
				res.OpenSpans++
			}
		case cat == "read" && !s.Open():
			if tr.Attr(s.Attrs(), "outcome") != "failed" {
				n, _ := tr.IntAttr(s.Attrs(), "size")
				res.ReadSpanBytes += n
			}
		}
	}
	res.TraceHash = traceHash(tr)
	res.Flight = tr.FlightEvents()
	res.EndTime = env.Eng.Now()
}

// servingLoadOptions is the fixed driver tuning for serving scenarios:
// a modest cache, top-half epoch prefetch, and a drain long enough for
// queue tails to clear — hot-block reads funnel through the few replica
// holders' NICs, so a node death or interference burst can leave a
// multi-minute backlog behind the horizon.
func servingLoadOptions() experiments.ServingLoadOptions {
	return experiments.ServingLoadOptions{
		CacheBudget:  2 * sim.GB,
		PrefetchFrac: 0.5,
		Epochs:       3,
		Drain:        5 * time.Minute,
	}
}

// runServingScenario executes a serving scenario: the drawn open-loop
// request stream through the shared serving driver, under the
// scenario's fault schedule.
func runServingScenario(sc Scenario, policy experiments.Policy) *RunResult {
	res := &RunResult{Policy: policy}
	env, err := newScenarioEnv(sc, policy)
	if err != nil {
		res.SubmitErrors = append(res.SubmitErrors, err.Error())
		return res
	}
	if sc.Heartbeats {
		env.FS.EnableHeartbeats()
	}

	scheduleFaults(env, sc, res)

	stream := workload.GenerateServing(sc.ServingSpec, sc.Seed)
	res.RequestsIssued = len(stream.Requests)
	res.InputBytes = sim.Bytes(sc.ServingSpec.TotalBlocks()) * env.FS.Config().BlockSize
	row, err := experiments.RunServingLoad(env, stream, servingLoadOptions())
	if err != nil {
		res.SubmitErrors = append(res.SubmitErrors, err.Error())
	} else {
		res.RequestsServed = row.Served
	}

	observeRun(env, res)
	return res
}

// traceHash digests the canonical trace document.
func traceHash(tr *trace.Tracer) string {
	h := sha256.New()
	if err := tr.WriteJSON(h); err != nil {
		return "error:" + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
