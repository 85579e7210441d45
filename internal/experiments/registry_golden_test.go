//go:build amd64

// The hashes cover float-derived results, so the registry golden is
// pinned to amd64, the architecture it was recorded on. go1.24 never
// fuses a multiply and an add into one FMA instruction on amd64, at any
// GOAMD64 level, so the hashes hold at v1 and v3 alike; CI also runs
// this test at GOAMD64=v3 and under GODEBUG=cpu.fma=off, which turns
// off the FMA path math.Exp picks at run time. On arm64 the compiler
// does fuse (40 sites in internal/), which rounds differently.

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
