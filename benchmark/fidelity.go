package main

import (
	"fmt"
	"reflect"

	"dyrs/internal/experiments"
)

// The scale, serving and swim workload functions repeat experiments'
// runners step for step. Every run first replays each at its smoke size
// and the run's seed beside the runner it copies and requires the same
// output, so a change to a runner that the copy does not follow makes
// the run incorrect instead of silently measuring the old model. The
// directory is a Go module of its own, which the repository's
// `go test ./...` does not reach; this check travels with the benchmark.

func scaleFidelity(seed int64) error {
	opt := scaleOptions("smoke", seed)
	want, err := experiments.RunScale(opt)
	if err != nil {
		return err
	}
	out, err := runScale(opt, &meter{})
	if err != nil {
		return err
	}
	if got := *out.row.(*experiments.ScaleRow); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("runScale row differs from experiments.RunScale:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

func servingFidelity(seed int64) error {
	opt := experiments.ServingSmokeOptions(seed)
	opt.Policies = []string{"dyrs"}
	rep, err := experiments.RunServing(opt)
	if err != nil {
		return err
	}
	if len(rep.Rows) != 1 {
		return fmt.Errorf("experiments.RunServing reported %d rows, want the dyrs row alone", len(rep.Rows))
	}
	want := rep.Rows[0]
	out, err := runServing(servingPreset("smoke"), seed, &meter{})
	if err != nil {
		return err
	}
	if got := out.row.(*servingRow).Row; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("runServing row differs from experiments.RunServing's dyrs row:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

func swimFidelity(seed int64) error {
	want, err := experiments.RunSWIMOnce(experiments.DYRS, seed)
	if err != nil {
		return err
	}
	out, err := runSwim(swimPreset("smoke"), seed, &meter{})
	if err != nil {
		return err
	}
	got := out.row.(*swimRow)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"jobs done", float64(got.Done), float64(len(want.Jobs))},
		{"mean job seconds", got.MeanJobSeconds, want.MeanJobSeconds()},
		{"map tasks", float64(got.MapTasks), float64(want.MapperDurations.Len())},
		{"mapper mean seconds", got.MapperMeanSec, want.MapperDurations.Mean()},
		{"memory sample mean", got.MemSampleMean, want.MemSamples.Mean()},
		{"peak memory per server", float64(got.PeakMemPerServer), float64(want.PeakMemPerServer)},
		{"bytes migrated", float64(got.BytesMigrated), float64(want.BytesMigrated)},
	} {
		if c.got != c.want {
			return fmt.Errorf("%s: runSwim %v, experiments.RunSWIMOnce %v", c.name, c.got, c.want)
		}
	}
	return nil
}
