package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// tinyScaleOptions is a seconds-fast preset for unit tests; the real
// presets run in the scale-smoke CI job and the macro-benchmarks.
func tinyScaleOptions(seed int64) ScaleOptions {
	opt := Scale100Options(seed)
	opt.Scenario = "scale-tiny"
	opt.Nodes, opt.Racks = 16, 4
	opt.Files, opt.BlocksPerFile = 16, 16
	opt.Jobs, opt.FilesPerJob = 16, 1
	opt.Virtual = 6 * time.Hour
	return opt
}

// TestScaleRowInvariants checks the accounting identities every scale
// run must satisfy: all requested blocks are either migrated or dropped
// to a missed read, every migrated block is eventually evicted (the
// end-of-run invariants in RunScale already prove nothing stays
// resident), and every read hit memory or was missed.
func TestScaleRowInvariants(t *testing.T) {
	t.Parallel()
	row, err := RunScale(tinyScaleOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if row.Requested != row.Blocks {
		t.Errorf("requested %d of %d blocks", row.Requested, row.Blocks)
	}
	if row.Migrated+row.Dropped != row.Requested {
		t.Errorf("migrated %d + dropped %d != requested %d", row.Migrated, row.Dropped, row.Requested)
	}
	if row.MemoryHits+row.MissedReads != row.Blocks {
		t.Errorf("hits %d + missed %d != blocks %d (each block read once)",
			row.MemoryHits, row.MissedReads, row.Blocks)
	}
	if row.Evicted != row.Migrated {
		t.Errorf("evicted %d != migrated %d", row.Evicted, row.Migrated)
	}
	if row.EventsFired == 0 || row.PeakQueued == 0 || row.BinderUpdates == 0 {
		t.Errorf("missing engine counters: %+v", row)
	}
}

// TestScaleDeterminism runs the same preset twice and requires
// byte-identical canonical JSON — the determinism contract the
// scale-smoke CI job enforces at 100 nodes.
func TestScaleDeterminism(t *testing.T) {
	t.Parallel()
	opt := tinyScaleOptions(42)
	first, err := RunScale(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScale(opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestScaleDeterminism100 is the full 100-node determinism gate: two
// complete scale100 runs must serialize identically. ~2s; the larger
// presets get the same guarantee transitively (same code path, only
// preset constants differ) and via dyrs-bench -verify on the registered
// scale experiment.
func TestScaleDeterminism100(t *testing.T) {
	if testing.Short() {
		t.Skip("full 100-node double run skipped under -short")
	}
	t.Parallel()
	first, err := RunScale(Scale100Options(42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScale(Scale100Options(42))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("scale100 seed 42 diverged:\n%s\n%s", a, b)
	}
}

// TestScaleMemoryBudget runs the 100-node preset and fails if the Go
// runtime claimed more OS memory than the budget — the peak-RSS ceiling
// of the scale-smoke CI job, which runs this test in a dedicated
// process under GOMEMLIMIT. The budget is deliberately process-wide
// (runtime Sys, an upper bound on RSS) and overridable via
// DYRS_SCALE_RSS_BUDGET_MIB for slower or more parallel environments.
func TestScaleMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full 100-node run skipped under -short")
	}
	budgetMiB := 768.0
	if env := os.Getenv("DYRS_SCALE_RSS_BUDGET_MIB"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("DYRS_SCALE_RSS_BUDGET_MIB=%q: %v", env, err)
		}
		budgetMiB = v
	}
	if _, err := RunScale(Scale100Options(42)); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if sys := float64(ms.Sys) / (1 << 20); sys > budgetMiB {
		t.Errorf("runtime claimed %.0f MiB from the OS, budget %.0f MiB", sys, budgetMiB)
	}
}

// TestScalePresetShape pins the preset parameters the documented
// numbers and committed benchmark baseline were measured at: silently
// shrinking a preset would make the gate meaningless.
func TestScalePresetShape(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		opt    ScaleOptions
		nodes  int
		blocks int
	}{
		{Scale100Options(1), 100, 102400},
		{Scale1kOptions(1), 1000, 1048576},
		{Scale10kOptions(1), 10000, 2097152},
	} {
		if tc.opt.Nodes != tc.nodes {
			t.Errorf("%s nodes = %d, want %d", tc.opt.Scenario, tc.opt.Nodes, tc.nodes)
		}
		if got := tc.opt.Files * tc.opt.BlocksPerFile; got != tc.blocks {
			t.Errorf("%s blocks = %d, want %d", tc.opt.Scenario, got, tc.blocks)
		}
		if tc.opt.Nodes%tc.opt.Racks != 0 {
			t.Errorf("%s racks %d do not divide nodes %d", tc.opt.Scenario, tc.opt.Racks, tc.opt.Nodes)
		}
	}
}

// TestRunScaleRejectsBadOptions: sizes and spans that would panic deep
// in dfs set-up or event scheduling, or silently run nothing, are
// refused up front.
func TestRunScaleRejectsBadOptions(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		edit func(*ScaleOptions)
	}{
		{"zero block size", func(o *ScaleOptions) { o.BlockSize = 0 }},
		{"negative block size", func(o *ScaleOptions) { o.BlockSize = -1 }},
		{"zero files per job", func(o *ScaleOptions) { o.FilesPerJob = 0 }},
		{"negative files per job", func(o *ScaleOptions) { o.FilesPerJob = -1 }},
		{"zero virtual span", func(o *ScaleOptions) { o.Virtual = 0 }},
		{"negative virtual span", func(o *ScaleOptions) { o.Virtual = -time.Hour }},
		{"negative racks", func(o *ScaleOptions) { o.Racks = -1 }},
		{"negative sampling", func(o *ScaleOptions) { o.SampleEvery = -2 }},
		{"zero jobs", func(o *ScaleOptions) { o.Jobs = 0 }},
	} {
		opt := tinyScaleOptions(1)
		tc.edit(&opt)
		if _, err := RunScale(opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
