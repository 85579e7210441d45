package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyrs/internal/experiments"
)

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 50; seed++ {
		a, b := generate(seed, false), generate(seed, false)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 200; seed++ {
		sc := generate(seed, false)
		if sc.Workers < 5 || sc.Workers > 8 {
			t.Fatalf("seed %d: workers = %d", seed, sc.Workers)
		}
		if len(sc.Jobs) < 2 || len(sc.Jobs) > 5 {
			t.Fatalf("seed %d: %d jobs", seed, len(sc.Jobs))
		}
		names := map[string]bool{}
		files := map[string]bool{}
		for _, j := range sc.Jobs {
			if names[j.Name] || files[j.File] {
				t.Fatalf("seed %d: duplicate job name/file %q/%q", seed, j.Name, j.File)
			}
			names[j.Name], files[j.File] = true, true
			if j.Size <= 0 {
				t.Fatalf("seed %d: job %s has size %d", seed, j.Name, j.Size)
			}
			if j.Kind == KindJoin && (j.File2 == "" || j.Size2 <= 0) {
				t.Fatalf("seed %d: join %s lacks a right input", seed, j.Name)
			}
		}
		deaths := 0
		for _, f := range sc.Faults {
			if f.At <= 0 || f.At >= sc.Horizon {
				t.Fatalf("seed %d: fault at %v outside horizon", seed, f.At)
			}
			if f.Node < 0 || f.Node >= sc.Workers {
				t.Fatalf("seed %d: fault on node %d of %d", seed, f.Node, sc.Workers)
			}
			switch f.Kind {
			case FaultNodeDeath:
				deaths++
			case FaultInterference:
				if f.Dur <= 0 || f.Streams <= 0 || f.Weight <= 0 {
					t.Fatalf("seed %d: malformed interference %+v", seed, f)
				}
			}
		}
		if deaths > 1 {
			t.Fatalf("seed %d: %d node deaths", seed, deaths)
		}
	}
}

func TestGenerateLargeDeterministicAndBounds(t *testing.T) {
	t.Parallel()
	sawDeaths := 0
	for seed := int64(1); seed <= 100; seed++ {
		sc := generate(seed, true)
		if !reflect.DeepEqual(sc, generate(seed, true)) {
			t.Fatalf("seed %d: the large draw is not deterministic", seed)
		}
		if !sc.Large {
			t.Fatalf("seed %d: Large not set", seed)
		}
		if sc.Workers < 64 || sc.Workers > 256 {
			t.Fatalf("seed %d: workers = %d, want 64..256", seed, sc.Workers)
		}
		if sc.Racks != 4 && sc.Racks != 8 && sc.Racks != 16 {
			t.Fatalf("seed %d: racks = %d", seed, sc.Racks)
		}
		if len(sc.Jobs) < 6 || len(sc.Jobs) > 12 {
			t.Fatalf("seed %d: %d jobs, want 6..12", seed, len(sc.Jobs))
		}
		deaths := 0
		for _, f := range sc.Faults {
			if f.Node < 0 || f.Node >= sc.Workers {
				t.Fatalf("seed %d: fault on node %d of %d", seed, f.Node, sc.Workers)
			}
			if f.Kind == FaultNodeDeath {
				deaths++
			}
		}
		if deaths > 3 {
			t.Fatalf("seed %d: %d node deaths, want <= 3", seed, deaths)
		}
		sawDeaths += deaths
	}
	if sawDeaths == 0 {
		t.Error("no large seed in 1..100 drew a node death; envelope too tame")
	}
}

// TestGenerateLargeIndependentStream guards the seed decorrelation: the
// large draw for seed N must not be the small draw dressed up.
func TestGenerateLargeIndependentStream(t *testing.T) {
	t.Parallel()
	same := 0
	for seed := int64(1); seed <= 20; seed++ {
		if len(generate(seed, false).Jobs) == len(generate(seed, true).Jobs) {
			same++
		}
	}
	if same == 20 {
		t.Error("large and small streams fully correlated across 20 seeds")
	}
}

// TestCheckScenarioLargeSmoke runs the full five-oracle battery on one
// datacenter-shaped scenario — the per-PR slice of the nightly
// scenario-sweep-large job. Large runs are seconds each (three full
// simulations), so keep this to a single seed and skip under -short.
func TestCheckScenarioLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large scenario run skipped under -short")
	}
	t.Parallel()
	sc := generate(3, true)
	if sc.Racks <= 1 {
		t.Fatalf("large scenario has no racks: %s", sc)
	}
	for _, f := range CheckScenario(sc) {
		t.Errorf("large seed 3: %s", f)
	}
}

// TestCheckScenarioSmokeSeeds runs the full oracle battery over a few
// seeds chosen to cover faults and heterogeneity (the wide sweep lives
// in CI via cmd/dyrs-fuzz).
func TestCheckScenarioSmokeSeeds(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3, 7, 9} {
		for _, f := range CheckScenario(generate(seed, false)) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestRunScenarioObservations checks the harness actually exercises the
// system: jobs complete, migrations happen, and the trace hash is
// stable across runs.
func TestRunScenarioObservations(t *testing.T) {
	t.Parallel()
	sc := generate(7, false)
	r := RunScenario(sc, experiments.DYRS)
	if len(r.Completed) != len(sc.Jobs) {
		t.Fatalf("completed %d of %d jobs", len(r.Completed), len(sc.Jobs))
	}
	if r.Stats.Migrated == 0 || r.Stats.BytesMigrated == 0 {
		t.Fatalf("no migration activity: %+v", r.Stats)
	}
	if r.Counters["migration.completed"] != int64(r.Stats.Migrated) {
		t.Fatalf("counter mismatch: %d vs %d", r.Counters["migration.completed"], r.Stats.Migrated)
	}
	if r.TraceHash == "" || r.TraceHash != RunScenario(sc, experiments.DYRS).TraceHash {
		t.Fatal("trace hash empty or unstable")
	}
	h := RunScenario(sc, experiments.HDFS)
	if h.Stats.Requested != 0 || h.MemUsedEnd != 0 {
		t.Fatalf("HDFS run migrated: %+v", h.Stats)
	}
}

// TestRunScenarioRejectsInvalidScenario pins Scenario.Validate at the
// RunScenario boundary: each case used to panic inside the engine or the
// fault schedule (divide by zero, negative node index, event before
// now) and now comes back as a submission error, on the job and the
// serving path alike.
func TestRunScenarioRejectsInvalidScenario(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(sc *Scenario)
		want   string
	}{
		{"zero workers", func(sc *Scenario) { sc.Workers = 0 }, "Workers"},
		{"negative node", func(sc *Scenario) {
			sc.Faults[0].Kind = FaultNodeDeath
			sc.Faults[0].Node = -3
		}, "negative node"},
		{"negative time", func(sc *Scenario) { sc.Faults[0].At = -time.Second }, "negative time"},
	}
	for _, base := range []Scenario{generate(7, false), GenerateServing(1)} {
		for _, tc := range cases {
			sc := base
			sc.Faults = append([]Fault(nil), base.Faults...)
			tc.mutate(&sc)
			if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("serving=%v %s: Validate() = %v, want error containing %q", sc.Serving, tc.name, err, tc.want)
			}
			r := RunScenario(sc, experiments.DYRS)
			if len(r.SubmitErrors) != 1 || !strings.Contains(r.SubmitErrors[0], tc.want) {
				t.Errorf("serving=%v %s: SubmitErrors = %v, want one containing %q", sc.Serving, tc.name, r.SubmitErrors, tc.want)
			}
		}
		if err := base.Validate(); err != nil {
			t.Errorf("serving=%v: generated scenario rejected: %v", base.Serving, err)
		}
	}
}

// TestEvaluateDetectsSyntheticViolations feeds hand-built results to
// each oracle to prove none of them is vacuous.
func TestEvaluateDetectsSyntheticViolations(t *testing.T) {
	t.Parallel()
	sc := generate(1, false)
	clean := func() (*RunResult, *RunResult, *RunResult) {
		mk := func(p experiments.Policy) *RunResult {
			return &RunResult{Policy: p, TraceHash: "h", Counters: map[string]int64{}}
		}
		return mk(experiments.DYRS), mk(experiments.DYRS), mk(experiments.HDFS)
	}
	if r1, r2, rh := clean(); len(Evaluate(sc, r1, r2, rh)) != 0 {
		t.Fatalf("baseline should pass: %v", Evaluate(sc, r1, r2, rh))
	}

	cases := []struct {
		oracle string
		mutate func(r1, r2, rh *RunResult)
	}{
		{OracleFsck, func(r1, _, _ *RunResult) { r1.FinalFsck = []string{"bad"} }},
		{OracleFsck, func(_, _, rh *RunResult) { rh.CheckpointFsck = []string{"bad"} }},
		{OracleConservation, func(r1, _, _ *RunResult) { r1.MemUsedEnd = 42 }},
		{OracleConservation, func(r1, _, _ *RunResult) { r1.Stats.Requested = 3 }},
		{OracleConservation, func(r1, _, _ *RunResult) { r1.OpenSpans = 1 }},
		{OracleConservation, func(r1, _, _ *RunResult) { r1.ReadSpanBytes = 10 }},
		{OracleLiveness, func(r1, _, _ *RunResult) { r1.Submitted = 2 }},
		{OracleLiveness, func(r1, _, _ *RunResult) { r1.QueuedEnd = 1 }},
		{OracleLiveness, func(r1, _, _ *RunResult) { r1.SubmitErrors = []string{"x"} }},
		{OracleMetamorphic, func(r1, r2, _ *RunResult) {
			r1.Completed = []string{"a"}
			r2.Completed = []string{"a"}
			r1.Submitted, r2.Submitted = 1, 1
		}},
		{OracleDeterminism, func(_, r2, _ *RunResult) { r2.TraceHash = "other" }},
		{OracleDeterminism, func(_, r2, _ *RunResult) { r2.Stats.Migrated = 9 }},
	}
	for i, tc := range cases {
		r1, r2, rh := clean()
		tc.mutate(r1, r2, rh)
		got := Evaluate(sc, r1, r2, rh)
		found := false
		for _, f := range got {
			if f.Oracle == tc.oracle {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: oracle %s did not fire (got %v)", i, tc.oracle, got)
		}
	}
}

func TestReproParseFormatRoundTrip(t *testing.T) {
	t.Parallel()
	for _, mask := range []string{"", "faults=0,2;jobs=1", "faults=none", "jobs=0,1,2"} {
		r, err := ParseRepro(5, mask)
		if err != nil {
			t.Fatalf("%q: %v", mask, err)
		}
		if got := r.String(); got != mask {
			t.Errorf("round trip %q -> %q", mask, got)
		}
	}
	// An empty list is the spelled-out form of "none".
	r, err := ParseRepro(5, "faults=;jobs=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.KeepFaults) != 0 || r.KeepFaults == nil || !reflect.DeepEqual(r.KeepJobs, []int{0}) {
		t.Errorf("empty list parsed as %+v", r)
	}
	for _, bad := range []string{"faults", "faults=1,x", "blocks=1"} {
		if _, err := ParseRepro(5, bad); err == nil {
			t.Errorf("ParseRepro accepted %q", bad)
		}
	}
}

func TestReproScenarioAppliesMasks(t *testing.T) {
	t.Parallel()
	var seed int64
	for seed = 1; ; seed++ {
		sc := generate(seed, false)
		if len(sc.Faults) >= 2 && len(sc.Jobs) >= 2 {
			break
		}
	}
	full := generate(seed, false)
	r := Repro{Seed: seed, KeepFaults: []int{1}, KeepJobs: []int{0}}
	sc := r.Scenario()
	if len(sc.Faults) != 1 || !reflect.DeepEqual(sc.Faults[0], full.Faults[1]) {
		t.Fatalf("fault mask not applied: %+v", sc.Faults)
	}
	if len(sc.Jobs) != 1 || sc.Jobs[0].Name != full.Jobs[0].Name {
		t.Fatalf("job mask not applied: %+v", sc.Jobs)
	}
	if r.Events() != 2 {
		t.Fatalf("Events() = %d, want 2", r.Events())
	}
	if got, want := r.Command(), fmt.Sprintf("dyrs-fuzz -seed %d -repro 'faults=1;jobs=0'", seed); got != want {
		t.Fatalf("Command() = %q, want %q", got, want)
	}
	r.Large = true
	if got, want := r.Command(), fmt.Sprintf("dyrs-fuzz -large -seed %d -repro 'faults=1;jobs=0'", seed); got != want {
		t.Fatalf("large Command() = %q, want %q", got, want)
	}
	if large := r.Scenario(); !large.Large || large.Workers < 64 {
		t.Fatalf("large repro regenerated small scenario: %s", large)
	}
}

// TestShrinkWithSyntheticPredicate verifies the reduction core finds a
// one-minimal scenario without touching the simulator.
func TestShrinkWithSyntheticPredicate(t *testing.T) {
	t.Parallel()
	var seed int64
	for seed = 1; ; seed++ {
		sc := generate(seed, false)
		if len(sc.Faults) >= 3 && len(sc.Jobs) >= 3 {
			break
		}
	}
	// Fails whenever at least one fault and one job remain: the minimum
	// is exactly one of each.
	calls := 0
	rep := ShrinkWith(Repro{Seed: seed}, func(sc Scenario) bool {
		calls++
		return len(sc.Faults) >= 1 && len(sc.Jobs) >= 1
	})
	if len(rep.KeepFaults) != 1 || len(rep.KeepJobs) != 1 {
		t.Fatalf("shrunk to faults=%v jobs=%v, want one of each", rep.KeepFaults, rep.KeepJobs)
	}
	if rep.Events() != 2 {
		t.Fatalf("Events() = %d after shrink", rep.Events())
	}
	if calls == 0 {
		t.Fatal("predicate never invoked")
	}
	// The shrinker must preserve the predicate on its result.
	if sc := rep.Scenario(); len(sc.Faults) != 1 || len(sc.Jobs) != 1 {
		t.Fatalf("materialized repro has %d faults, %d jobs", len(sc.Faults), len(sc.Jobs))
	}
}
