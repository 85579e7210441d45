//go:build amd64 && !amd64.v3

// The hashes cover float-derived results. Go may fuse a multiply and an
// add into one FMA instruction on other architectures and at
// GOAMD64=v3, which rounds differently and changes the hashes, so the
// registry golden is pinned only on the baseline amd64 target it was
// recorded on.

package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// registryGoldenPath holds the ResultHash of every registered
// experiment at seed 42, as dyrs-bench -verify -seed 42 prints them. A
// declared regeneration copies the file a failing check writes under
// os.TempDir() over it.
const registryGoldenPath = "testdata/registry_hashes.json"

func init() { checkRegistryGolden = compareRegistryGolden }

func compareRegistryGolden(t *testing.T, rep VerifyReport) {
	t.Helper()
	if rep.Seed != 42 {
		t.Fatalf("registry golden is recorded at seed 42, report is seed %d", rep.Seed)
	}
	want := map[string]string{}
	if b, err := os.ReadFile(registryGoldenPath); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", registryGoldenPath, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range rep.Rows {
		got[row.Name] = row.SerialHash
		if want[row.Name] != row.SerialHash {
			t.Errorf("%s: hash %.12s…, golden %.12s…", row.Name, row.SerialHash, want[row.Name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d experiments, registry %d", len(want), len(got))
	}
	if !t.Failed() {
		return
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp("", "registry_hashes-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(b, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("recomputed hashes written to %s; a declared regeneration copies them over internal/experiments/%s", f.Name(), registryGoldenPath)
}
