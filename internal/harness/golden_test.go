//go:build amd64 && !amd64.v3

// The corpus holds float-derived results. Go may fuse a multiply and an
// add into one FMA instruction on other architectures and at
// GOAMD64=v3, which rounds differently and changes the digests, so the
// corpus is pinned only on the baseline amd64 target it was recorded on.

package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dyrs/internal/experiments"
	"dyrs/internal/migration"
)

// goldenPath is the committed corpus. A declared regeneration copies the
// file a failing TestGoldenCorpus writes under os.TempDir() over it.
const goldenPath = "testdata/golden.json"

// goldenEntry is one scenario's recorded outcome: the canonical trace
// hash, the virtual end time, the served request count (serving only)
// and one digest over Stats, Counters and the completion set.
type goldenEntry struct {
	Name           string `json:"name"`
	TraceHash      string `json:"trace_hash"`
	EndTime        int64  `json:"end_time_ns"`
	RequestsServed int    `json:"requests_served"`
	Digest         string `json:"digest"`
}

type goldenCase struct {
	name string
	sc   Scenario
}

// goldenCases lists the corpus scenarios in file order: Generate seeds
// 1-60, then GenerateServing seeds 1-12.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for seed := int64(1); seed <= 60; seed++ {
		cases = append(cases, goldenCase{fmt.Sprintf("generate/seed=%d", seed), Generate(seed)})
	}
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, goldenCase{fmt.Sprintf("serving/seed=%d", seed), GenerateServing(seed)})
	}
	return cases
}

// recordGolden runs the scenario under DYRS with the "dyrs" policy and
// reduces the run to its corpus entry.
func recordGolden(t *testing.T, c goldenCase) goldenEntry {
	t.Helper()
	sc := c.sc
	sc.Policy = "dyrs"
	res := RunScenario(sc, experiments.DYRS)
	b, err := json.Marshal(struct {
		Stats     migration.Stats
		Counters  map[string]int64
		Completed []string
	}{res.Stats, res.Counters, res.Completed})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return goldenEntry{
		Name:           c.name,
		TraceHash:      res.TraceHash,
		EndTime:        int64(res.EndTime),
		RequestsServed: res.RequestsServed,
		Digest:         hex.EncodeToString(sum[:]),
	}
}

// readGolden loads the committed corpus keyed by scenario name. A
// missing file reads as an empty corpus, so a first recording fails
// every entry and writes the whole file.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	want := map[string]goldenEntry{}
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		return want
	}
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, e := range entries {
		want[e.Name] = e
	}
	return want
}

// TestGoldenCorpus pins every corpus scenario to the committed trace
// hash, end time, served count and stats digest. The corpus was
// recorded while the frozen pre-extraction DYRS binder and the
// reference-mode fair-share resources still existed and matched these
// runs byte for byte, so it carries their proof forward. On a
// mismatch the test lists the differing entries and writes the
// recomputed corpus to a temporary file for a declared regeneration.
func TestGoldenCorpus(t *testing.T) {
	want := readGolden(t)
	cases := goldenCases()
	got := make([]goldenEntry, len(cases))
	t.Run("scenarios", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				got[i] = recordGolden(t, c)
				if w, ok := want[c.name]; !ok {
					t.Errorf("no corpus entry")
				} else if got[i] != w {
					t.Errorf("got %+v, corpus %+v", got[i], w)
				}
			})
		}
	})
	if len(want) != len(cases) {
		t.Errorf("corpus has %d entries, want %d", len(want), len(cases))
	}
	if !t.Failed() {
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "golden-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("recomputed corpus written to %s; a declared regeneration copies it over internal/harness/%s", f.Name(), goldenPath)
}

// The differential suites that proved the policy extraction and the
// fair-share resource rewrite against their frozen references keep
// their names as views of the corpus those references recorded: each
// view runs its family's scenarios and checks them against their
// entries. The "shards=K" part of a subtest name is the shard count
// that seed rotated through (1, 2, 4 by seed mod 3) when scenarios
// could still be pinned to a sharded engine; it is kept so the test
// IDs stay stable, and every run is now the one plain-engine run.
func TestDYRSPolicyConformance(t *testing.T)           { checkFamily(t, "generate/") }
func TestDYRSPolicyConformanceServing(t *testing.T)    { checkFamily(t, "serving/") }
func TestResourceModelConformance(t *testing.T)        { checkFamily(t, "generate/") }
func TestResourceModelConformanceServing(t *testing.T) { checkFamily(t, "serving/") }

// rotatedShards names the subtests of the conformance views.
var rotatedShards = [...]int{1, 2, 4}

func checkFamily(t *testing.T, family string) {
	want := readGolden(t)
	for _, c := range goldenCases() {
		if !strings.HasPrefix(c.name, family) {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d/shards=%d", c.sc.Seed, rotatedShards[c.sc.Seed%3]), func(t *testing.T) {
			t.Parallel()
			if got := recordGolden(t, c); got != want[c.name] {
				t.Errorf("got %+v, corpus %+v", got, want[c.name])
			}
		})
	}
}
