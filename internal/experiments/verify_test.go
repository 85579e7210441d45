package experiments

import (
	"strings"
	"testing"
)

// fakeExperiment builds a minimal registry entry whose result lands in
// the report's Fig10 slot (scalar fields, easy to hash).
func fakeExperiment(name string, run func(seed int64) (any, error)) Experiment {
	return Experiment{
		Name:    name,
		Summary: "test fixture",
		Run:     run,
		Render:  func(any, Selection) []string { return nil },
		Merge: func(rep *FullReport, result any) {
			rep.Fig10.NaiveSlowTail = result.(int)
		},
	}
}

// TestVerifyCatchesSeedDivergence injects an experiment that ignores
// its seed and returns a different result on every invocation — the
// exact failure mode (hidden global state) -verify exists to catch.
func TestVerifyCatchesSeedDivergence(t *testing.T) {
	t.Parallel()
	calls := 0
	divergent := fakeExperiment("divergent", func(seed int64) (any, error) {
		calls++
		return calls, nil
	})
	stable := fakeExperiment("stable", func(seed int64) (any, error) {
		return int(seed), nil
	})
	rep, err := verifyExperiments([]Experiment{stable, divergent}, 42, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("divergent experiment passed verification")
	}
	div := rep.Divergent()
	if len(div) != 1 || div[0] != "divergent" {
		t.Fatalf("Divergent() = %v", div)
	}
	for _, row := range rep.Rows {
		switch row.Name {
		case "stable":
			if !row.OK() {
				t.Errorf("stable experiment flagged: %+v", row)
			}
		case "divergent":
			if row.OK() || row.SerialHash == row.ParallelHash {
				t.Errorf("divergence not detected: %+v", row)
			}
		}
	}
}

// TestVerifyPanicIsolation: a panicking experiment must surface as an
// error from the verify pass, not crash the process.
func TestVerifyPanicIsolation(t *testing.T) {
	t.Parallel()
	boom := fakeExperiment("boom", func(seed int64) (any, error) {
		panic("experiment exploded")
	})
	ok := fakeExperiment("ok", func(seed int64) (any, error) { return 1, nil })
	_, err := verifyExperiments([]Experiment{ok, boom}, 1, 2, nil)
	if err == nil {
		t.Fatal("panicking experiment not reported")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "experiment exploded") {
		t.Errorf("error lost panic context: %v", err)
	}
}

func TestResultHashCanonical(t *testing.T) {
	t.Parallel()
	exp := fakeExperiment("x", nil)
	h1, err := ResultHash(exp, 7)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ResultHash(exp, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Errorf("hash not stable/canonical: %q vs %q", h1, h2)
	}
	h3, err := ResultHash(exp, 8)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("different results hashed identically")
	}
}

// checkRegistryGolden compares a seed-42 verify report with the
// committed registry hashes. It is nil on targets the corpus is not
// pinned on (see registry_golden_test.go).
var checkRegistryGolden func(t *testing.T, rep VerifyReport)

// TestVerifyDeterminismFullRegistry runs the real registry through the
// verifier at a small worker count — the machine-checked form of the
// package's headline claim that identical seeds give identical results
// — and pins the serial hashes to the committed registry golden.
func TestVerifyDeterminismFullRegistry(t *testing.T) {
	t.Parallel()
	rep, err := VerifyDeterminism(42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(Registry()) {
		t.Fatalf("verified %d of %d experiments", len(rep.Rows), len(Registry()))
	}
	if !rep.OK() {
		t.Errorf("determinism broken for: %v", rep.Divergent())
	}
	if checkRegistryGolden != nil {
		checkRegistryGolden(t, rep)
	}
}
