package main

import (
	"time"

	"dyrs/internal/experiments"
)

// shardedOptions sizes the sharded workload: the ScaleShard1kOptions
// preset (1,000 nodes, 21 shards, 1,000 closed-loop readers) with 6 h
// of virtual time.
func shardedOptions(size string, seed int64) experiments.ScaleShardOptions {
	if size == "smoke" {
		return experiments.ScaleShardSmokeOptions(seed)
	}
	o := experiments.ScaleShard1kOptions(seed)
	o.Scenario = "scaleshard-bench"
	o.Virtual = 6 * time.Hour
	return o
}

// runSharded calls experiments.RunScaleShard itself: the partitioned
// model lives inside that function, so a change to it shows here
// unfiltered. Set-up cannot be split out of the call, so set-up is
// measured as a run of the same topology with one one-block job and one
// nanosecond of virtual time, which builds every shard, disk and
// per-node RNG and then drains at once.
func runSharded(opt experiments.ScaleShardOptions, m *meter) (outcome, error) {
	opt.Workers = m.workers
	out := outcome{attempted: 1, failed: 1}
	m.peakLive = true
	m.beginSetup()
	probe := opt
	probe.Jobs, probe.BlocksPerJob, probe.Virtual = 1, 1, 1
	if _, err := experiments.RunScaleShard(probe); err != nil {
		return out, err
	}
	m.endSetup()
	row, err := experiments.RunScaleShard(opt)
	m.endSim()
	out.row = row
	out.attempted = row.Requested
	out.failed = row.Requested - row.Migrated
	out.events = row.EventsFired
	out.counts = map[string]float64{
		"shard.windows":       float64(row.Rounds),
		"shard.solo_rounds":   float64(row.SoloRounds),
		"shard.stalls":        float64(row.LookaheadStalls),
		"shard.cross_msgs":    float64(row.CrossShardMsgs),
		"migration.requested": float64(row.Requested),
		"migration.migrated":  float64(row.Migrated),
	}
	return out, err
}
