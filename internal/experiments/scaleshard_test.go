package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dyrs/internal/sim"
)

// tinyScaleShardOptions is a sub-second preset for unit tests; the
// registered smoke preset runs in CI and the 1k preset in the
// macro-benchmarks.
func tinyScaleShardOptions(seed int64) ScaleShardOptions {
	opt := ScaleShardSmokeOptions(seed)
	opt.Scenario = "scaleshard-tiny"
	opt.Nodes, opt.Racks = 24, 4
	opt.Jobs, opt.BlocksPerJob = 8, 8
	opt.Virtual = 10 * time.Minute
	return opt
}

// TestScaleShardRowInvariants checks the accounting identities of the
// partitioned model: every requested migration completes and is acked
// by the master, every buffered block is evicted, and the data plane
// actually carried load.
func TestScaleShardRowInvariants(t *testing.T) {
	t.Parallel()
	row, err := RunScaleShard(tinyScaleShardOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if row.Shards != 5 {
		t.Errorf("shards = %d, want 1 control + 4 rack", row.Shards)
	}
	if row.Requested == 0 || row.Migrated != row.Requested || row.Evicted != row.Migrated {
		t.Errorf("migration accounting broken: %+v", row)
	}
	if row.Reads == 0 || row.Heartbeats == 0 || row.EventsFired == 0 {
		t.Errorf("data plane idle: %+v", row)
	}
	if row.Digest == "" || row.Digest == "0000000000000000" {
		t.Errorf("empty execution digest: %+v", row)
	}
}

// TestScaleShardWorkerInvariance is the experiment-level determinism
// guarantee: identical rows — counters AND execution digest — at every
// worker count. Run under -race in CI this also proves the parallel
// windows race-free on a real model.
func TestScaleShardWorkerInvariance(t *testing.T) {
	t.Parallel()
	run := func(workers int) []byte {
		opt := tinyScaleShardOptions(42)
		opt.Workers = workers
		row, err := RunScaleShard(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Errorf("workers=%d diverged from workers=1:\n%s\n%s", workers, got, ref)
		}
	}
}

// TestScaleShardDeterminism: same seed, same bytes, run to run.
func TestScaleShardDeterminism(t *testing.T) {
	t.Parallel()
	opt := tinyScaleShardOptions(9)
	first, err := RunScaleShard(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScaleShard(opt)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
}

// TestScaleShardSmokeWorkerInvariance runs the full registered smoke
// preset at 1 and 4 workers — the shard-smoke CI gate at the scale the
// registry actually runs. Skipped under -short.
func TestScaleShardSmokeWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke double run skipped under -short")
	}
	t.Parallel()
	run := func(workers int) []byte {
		opt := ScaleShardSmokeOptions(42)
		opt.Workers = workers
		row, err := RunScaleShard(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, _ := json.Marshal(row)
		return b
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Errorf("smoke workers=%d diverged:\n%s\n%s", workers, got, ref)
		}
	}
}

// TestScaleShardMemoryBudget mirrors TestScaleMemoryBudget for the
// partitioned model at 4 workers: the smoke preset must stay inside
// the same process-wide Sys budget the scale-smoke CI job enforces.
func TestScaleShardMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full smoke run skipped under -short")
	}
	budgetMiB := 768.0
	if env := os.Getenv("DYRS_SCALE_RSS_BUDGET_MIB"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("DYRS_SCALE_RSS_BUDGET_MIB=%q: %v", env, err)
		}
		budgetMiB = v
	}
	opt := ScaleShardSmokeOptions(42)
	opt.Workers = 4
	if _, err := RunScaleShard(opt); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if sys := float64(ms.Sys) / (1 << 20); sys > budgetMiB {
		t.Errorf("runtime claimed %.0f MiB from the OS, budget %.0f MiB", sys, budgetMiB)
	}
}

// TestRunScaleShardRejectsBadOptions: durations and sizes that would
// panic on a worker goroutine (or spin at t=0) are refused up front.
func TestRunScaleShardRejectsBadOptions(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		edit func(*ScaleShardOptions)
	}{
		{"zero block size", func(o *ScaleShardOptions) { o.BlockSize = 0 }},
		{"negative block size", func(o *ScaleShardOptions) { o.BlockSize = -1 }},
		{"zero read interval", func(o *ScaleShardOptions) { o.ReadEvery = 0 }},
		{"negative read interval", func(o *ScaleShardOptions) { o.ReadEvery = -time.Second }},
		{"zero heartbeat", func(o *ScaleShardOptions) { o.Heartbeat = 0 }},
		{"zero control latency", func(o *ScaleShardOptions) { o.ControlLatency = 0 }},
		{"negative control latency", func(o *ScaleShardOptions) { o.ControlLatency = -time.Second }},
		{"zero virtual span", func(o *ScaleShardOptions) { o.Virtual = 0 }},
		{"zero nodes", func(o *ScaleShardOptions) { o.Nodes = 0 }},
	} {
		opt := tinyScaleShardOptions(1)
		tc.edit(&opt)
		if _, err := RunScaleShard(opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestScaleShardReadLoopAllocs: a warm closed-loop reader allocates
// nothing per read. AllocsPerRun(1, ...) reports the exact allocation
// count of one measured hour, which holds hundreds of reads.
//
// The warm-up runs to 10 h, past the clock's first crossing of 2^45 ns
// (9.8 h): the radix event queue allocates a bucket the first time the
// clock crosses each new power of two, O(log t) allocations in all, and
// the next crossing (19.5 h) lies beyond the measured hours.
func TestScaleShardReadLoopAllocs(t *testing.T) {
	opt := tinyScaleShardOptions(7)
	opt.Virtual = 100 * time.Hour
	eng := sim.NewEngine(opt.Seed)
	rk := newShardRack(eng, &opt, &shardMaster{})
	n := &shardNode{
		disk: sim.NewResource(eng, "disk:0", 100*float64(sim.MB), sim.SeekEfficiency(0.05)),
		rng:  rand.New(rand.NewSource(opt.Seed)),
	}
	rk.addNode(n)
	n.scheduleRead()
	eng.RunFor(10 * time.Hour)
	before := rk.reads
	if allocs := testing.AllocsPerRun(1, func() { eng.RunFor(time.Hour) }); allocs != 0 {
		t.Errorf("closed-loop reads allocate %.0f objects per hour, want 0", allocs)
	}
	if reads := rk.reads - before; reads < 1000 {
		t.Errorf("only %d reads in two hours", reads)
	}
}

// TestScaleShardPresetShape pins the preset parameters the committed
// benchmark baseline was measured at.
func TestScaleShardPresetShape(t *testing.T) {
	t.Parallel()
	smoke := ScaleShardSmokeOptions(1)
	if smoke.Nodes != 120 || smoke.Racks != 8 {
		t.Errorf("smoke preset drifted: %+v", smoke)
	}
	big := ScaleShard1kOptions(1)
	if big.Nodes != 1000 || big.Racks != 20 {
		t.Errorf("1k preset drifted: %+v", big)
	}
	for _, opt := range []ScaleShardOptions{smoke, big} {
		if opt.Nodes%opt.Racks != 0 {
			t.Errorf("%s racks %d do not divide nodes %d", opt.Scenario, opt.Racks, opt.Nodes)
		}
		if opt.ControlLatency <= 0 || opt.ControlLatency > opt.Heartbeat {
			t.Errorf("%s control latency %v outside (0, heartbeat]", opt.Scenario, opt.ControlLatency)
		}
	}
}
