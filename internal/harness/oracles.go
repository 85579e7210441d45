package harness

import (
	"fmt"
	"reflect"

	"dyrs/internal/experiments"
)

// Oracle names, used to classify failures and to steer shrinking (the
// shrinker preserves "still fails the same oracle").
const (
	OracleFsck         = "fsck"
	OracleConservation = "conservation"
	OracleLiveness     = "liveness"
	OracleMetamorphic  = "metamorphic"
	OracleDeterminism  = "determinism"
)

// OracleRunsPerSeed is how many scenario executions CheckScenario
// performs: DYRS x2 (determinism) + HDFS (metamorphic).
const OracleRunsPerSeed = 3

// Failure is one oracle violation.
type Failure struct {
	Oracle string
	Detail string
}

func (f Failure) String() string { return f.Oracle + ": " + f.Detail }

// CheckScenario executes the scenario three times — twice under DYRS,
// once under plain HDFS — and evaluates the full oracle battery. An
// empty slice means every oracle passed.
func CheckScenario(sc Scenario) []Failure {
	r1 := RunScenario(sc, experiments.DYRS)
	r2 := RunScenario(sc, experiments.DYRS)
	rh := RunScenario(sc, experiments.HDFS)
	return Evaluate(sc, r1, r2, rh)
}

// Evaluate applies the oracles to the runs of a scenario: the two DYRS
// runs and the HDFS run. Split from CheckScenario so tests can feed
// synthetic results.
func Evaluate(sc Scenario, r1, r2, rh *RunResult) []Failure {
	var fs []Failure
	fail := func(oracle, format string, args ...any) {
		fs = append(fs, Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	// 1. Structural: fsck must be clean mid-run and after the drain,
	// under both policies.
	for _, r := range []*RunResult{r1, rh} {
		for _, e := range r.CheckpointFsck {
			fail(OracleFsck, "[%s] checkpoint: %s", r.Policy, e)
		}
		for _, e := range r.FinalFsck {
			fail(OracleFsck, "[%s] final: %s", r.Policy, e)
		}
	}

	// 2. Conservation: coordinator stats, trace counters and span
	// tallies must describe the same history, and the drained end state
	// must hold no memory.
	c := func(name string) int64 { return r1.Counters[name] }
	if int64(r1.Stats.Requested) != c("migration.requested") {
		fail(OracleConservation, "stats.Requested=%d but migration.requested=%d",
			r1.Stats.Requested, c("migration.requested"))
	}
	if int64(r1.Stats.Migrated) != c("migration.completed") {
		fail(OracleConservation, "stats.Migrated=%d but migration.completed=%d",
			r1.Stats.Migrated, c("migration.completed"))
	}
	if int64(r1.Stats.Dropped) != c("migration.dropped") {
		fail(OracleConservation, "stats.Dropped=%d but migration.dropped=%d",
			r1.Stats.Dropped, c("migration.dropped"))
	}
	if int64(r1.Stats.BytesMigrated) != c("migration.bytes") {
		fail(OracleConservation, "stats.BytesMigrated=%d but migration.bytes=%d",
			r1.Stats.BytesMigrated, c("migration.bytes"))
	}
	if r1.MigrateSpans != r1.Stats.Requested {
		fail(OracleConservation, "%d migrate spans for %d requests",
			r1.MigrateSpans, r1.Stats.Requested)
	}
	if r1.PinnedSpans != r1.Stats.Migrated {
		fail(OracleConservation, "%d pinned spans for %d completed migrations",
			r1.PinnedSpans, r1.Stats.Migrated)
	}
	if r1.DroppedSpans != r1.Stats.Dropped {
		fail(OracleConservation, "%d dropped spans for %d drops",
			r1.DroppedSpans, r1.Stats.Dropped)
	}
	if r1.OpenSpans != 0 {
		fail(OracleConservation, "%d migration spans still open after drain", r1.OpenSpans)
	}
	if r1.Stats.Requested != r1.Stats.Migrated+r1.Stats.Dropped {
		fail(OracleConservation, "requested=%d != migrated=%d + dropped=%d after drain",
			r1.Stats.Requested, r1.Stats.Migrated, r1.Stats.Dropped)
	}
	if !sc.Serving && c("evictions") > c("migration.completed") {
		// Serving runs exempt: the coordinated cache registers and drops
		// its own memory replicas, so evictions legitimately exceed
		// completed migrations there.
		fail(OracleConservation, "evictions=%d exceed completed migrations=%d",
			c("evictions"), c("migration.completed"))
	}
	readBytes := c("read.bytes.disk-local") + c("read.bytes.disk-remote") +
		c("read.bytes.mem-local") + c("read.bytes.mem-remote")
	if r1.ReadSpanBytes != readBytes {
		fail(OracleConservation, "read spans carry %d bytes but counters sum to %d",
			r1.ReadSpanBytes, readBytes)
	}
	if !sc.Serving && len(r1.Completed) == r1.Submitted && readBytes < int64(r1.InputBytes) {
		// Serving runs exempt: the Zipf stream reads the popular head,
		// not every input byte.
		fail(OracleConservation, "all jobs done but only %d of %d input bytes read",
			readBytes, r1.InputBytes)
	}
	for _, r := range []*RunResult{r1, rh} {
		if r.MemUsedEnd != 0 {
			fail(OracleConservation, "[%s] %d buffered bytes survive the drain", r.Policy, r.MemUsedEnd)
		}
		if r.MemReplicasEnd != 0 {
			fail(OracleConservation, "[%s] %d memory replicas survive the drain", r.Policy, r.MemReplicasEnd)
		}
	}

	// 3. Liveness: every job completes (every serving request is
	// served), nothing is stuck in the migration pipeline.
	for _, r := range []*RunResult{r1, rh} {
		if len(r.SubmitErrors) > 0 {
			fail(OracleLiveness, "[%s] submit errors: %v", r.Policy, r.SubmitErrors)
		}
		if len(r.Completed) != r.Submitted {
			fail(OracleLiveness, "[%s] %d of %d jobs completed within %v",
				r.Policy, len(r.Completed), r.Submitted, sc.Horizon)
		}
		if sc.Serving && r.RequestsServed != r.RequestsIssued {
			fail(OracleLiveness, "[%s] served %d of %d requests within the drain",
				r.Policy, r.RequestsServed, r.RequestsIssued)
		}
		if r.PendingEnd != 0 || r.QueuedEnd != 0 {
			fail(OracleLiveness, "[%s] pipeline not drained: pending=%d queued=%d",
				r.Policy, r.PendingEnd, r.QueuedEnd)
		}
	}

	// 4. Metamorphic: migration must not change which jobs complete, or
	// how many serving requests are served.
	if !reflect.DeepEqual(r1.Completed, rh.Completed) {
		fail(OracleMetamorphic, "DYRS completed %v but HDFS completed %v",
			r1.Completed, rh.Completed)
	}
	if sc.Serving && r1.RequestsServed != rh.RequestsServed {
		fail(OracleMetamorphic, "DYRS served %d requests but HDFS served %d",
			r1.RequestsServed, rh.RequestsServed)
	}

	// 5. Determinism: identical scenario, byte-identical trace.
	if r1.TraceHash != r2.TraceHash {
		fail(OracleDeterminism, "trace hashes differ: %.12s… vs %.12s…",
			r1.TraceHash, r2.TraceHash)
	}
	if !reflect.DeepEqual(r1.Completed, r2.Completed) {
		fail(OracleDeterminism, "completion sets differ: %v vs %v", r1.Completed, r2.Completed)
	}
	if r1.Stats != r2.Stats {
		fail(OracleDeterminism, "stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
	if !reflect.DeepEqual(r1.Counters, r2.Counters) {
		fail(OracleDeterminism, "counters differ")
	}
	if r1.RequestsServed != r2.RequestsServed {
		fail(OracleDeterminism, "served counts differ: %d vs %d",
			r1.RequestsServed, r2.RequestsServed)
	}

	return fs
}

// FailedOracles returns the distinct oracle names present in failures,
// in first-seen order.
func FailedOracles(fs []Failure) []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range fs {
		if !seen[f.Oracle] {
			seen[f.Oracle] = true
			out = append(out, f.Oracle)
		}
	}
	return out
}
