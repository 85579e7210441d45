//go:build dyrs_canary

package harness

import (
	"testing"
)

// TestCanaryBugIsDetectedAndShrunk is the oracle self-test: built with
// -tags dyrs_canary, dfs.DropAllMem deliberately skips the buffered-byte
// release on a slave crash (a re-introduction of a real accounting-bug
// class). The harness must (a) detect the bug on some generated seed,
// via the fsck and/or conservation oracles, and (b) shrink the failing
// scenario to a minimal repro of at most three events.
//
// Run with: go test -tags dyrs_canary ./internal/harness -run Canary
func TestCanaryBugIsDetectedAndShrunk(t *testing.T) {
	var (
		seed     int64
		failures []Failure
	)
	// The bug fires whenever a slave crash catches resident buffers; the
	// generator produces such a scenario within the first few seeds.
	for seed = 1; seed <= 100; seed++ {
		if failures = CheckScenario(Generate(seed)); len(failures) > 0 {
			break
		}
	}
	if len(failures) == 0 {
		t.Fatal("canary bug survived 100 seeds: the oracles are vacuous")
	}
	t.Logf("seed %d detected the canary: %v", seed, failures)

	wantOracle := map[string]bool{OracleFsck: true, OracleConservation: true}
	detected := false
	for _, o := range FailedOracles(failures) {
		if wantOracle[o] {
			detected = true
		}
	}
	if !detected {
		t.Fatalf("accounting bug flagged only by %v, want fsck or conservation", FailedOracles(failures))
	}

	oracle := FailedOracles(failures)[0]
	rep := Shrink(Repro{Seed: seed}, oracle)
	t.Logf("shrunk to %d event(s): %s", rep.Events(), rep.Command())
	if rep.Events() > 3 {
		t.Fatalf("shrunk repro still has %d events, want <= 3", rep.Events())
	}
	// The reduced repro must still reproduce the failure.
	still := false
	for _, f := range CheckScenario(rep.Scenario()) {
		if f.Oracle == oracle {
			still = true
		}
	}
	if !still {
		t.Fatalf("shrunk repro %s no longer fails oracle %s", rep.Command(), oracle)
	}
}
