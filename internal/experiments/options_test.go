package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	mcfg := migration.DefaultConfig()
	migCfg := func(edit func(*migration.Config)) *migration.Config {
		c := migration.DefaultConfig()
		edit(&c)
		return &c
	}
	for _, tc := range []struct {
		name string
		opt  Options
		want string // substring of the error; "" = valid
	}{
		{"defaults", DefaultOptions(1), ""},
		{"zero value", Options{}, ""},
		{"racks", Options{Workers: 8, Racks: 2}, ""},
		{"slow node", Options{SlowNodes: map[int]float64{6: 0.5}}, ""},
		{"binder", Options{MigBinder: "ignem"}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"negative racks", Options{Racks: -2}, "Racks"},
		{"negative sampling", Options{SampleEvery: -3}, "SampleEvery"},
		{"slow node past default cluster", Options{SlowNodes: map[int]float64{7: 0.5}}, "index 7"},
		{"slow node past cluster", Options{Workers: 3, SlowNodes: map[int]float64{1: 0.5, 3: 0.5}}, "index 3"},
		{"negative slow node", Options{SlowNodes: map[int]float64{-1: 0.5}}, "index -1"},
		{"zero scale", Options{SlowNodes: map[int]float64{0: 0}}, "SlowNodes[0]"},
		{"NaN scale", Options{SlowNodes: map[int]float64{0: math.NaN()}}, "SlowNodes[0]"},
		{"infinite scale", Options{SlowNodes: map[int]float64{0: math.Inf(1)}}, "SlowNodes[0]"},
		{"overlong scale", Options{SlowNodes: map[int]float64{0: 1e-12}}, ""},
		{"vanishing scale", Options{SlowNodes: map[int]float64{0: 1e-300}}, "SlowNodes[0]"},
		{"huge scale", Options{SlowNodes: map[int]float64{0: 1e300}}, "SlowNodes[0]"},
		{"unknown binder", Options{MigBinder: "bogus"}, "MigBinder"},
		{"migration defaults", Options{MigrationConfig: &mcfg}, ""},
		{"zero IO weight", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.IOWeight = 0 })}, ""},
		{"zero heartbeat", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.Heartbeat = 0 })}, "Heartbeat"},
		{"negative target interval", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.TargetUpdateInterval = -1 })}, "TargetUpdateInterval"},
		{"NaN IO weight", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.IOWeight = math.NaN() })}, "IOWeight"},
		{"infinite IO weight", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.IOWeight = math.Inf(1) })}, "IOWeight"},
		{"huge IO weight", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.IOWeight = 1e300 })}, "IOWeight"},
		{"negative IO weight", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.IOWeight = -2 })}, ""},
		{"zero max concurrent", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.MaxConcurrent = 0 })}, ""},
		{"negative max concurrent", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.MaxConcurrent = -1 })}, "MaxConcurrent"},
		{"unknown order", Options{MigrationConfig: migCfg(func(c *migration.Config) { c.Order = migration.OrderEDF + 1 })}, "Order"},
	} {
		err := tc.opt.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzOptions: for any options Validate either returns an error or
// they build an environment that runs a small sort for one virtual
// minute without panicking.
func FuzzOptions(f *testing.F) {
	f.Add(int8(7), int8(0), int8(0), int8(-1), 1.0, uint8(0), uint8(3), false)
	f.Add(int8(8), int8(2), int8(4), int8(1), 0.25, uint8(1), uint8(2), true)
	f.Add(int8(3), int8(5), int8(-1), int8(5), 0.0, uint8(4), uint8(4), true)
	f.Add(int8(0), int8(0), int8(0), int8(0), math.NaN(), uint8(5), uint8(0), false)
	binders := []string{"", "dyrs", "ignem", "costaware", "bogus", "hdfs"}
	policies := []Policy{HDFS, RAM, Ignem, DYRS, Naive}

	f.Fuzz(func(t *testing.T, workers, racks, sample, slowIdx int8,
		slowScale float64, binder, pol uint8, traced bool) {
		opt := Options{
			Workers:     int(workers),
			Seed:        1,
			Racks:       int(racks),
			Trace:       traced,
			SampleEvery: int(sample),
			MigBinder:   binders[int(binder)%len(binders)],
		}
		if slowIdx != -1 { // -1 leaves SlowNodes unset
			opt.SlowNodes = map[int]float64{int(slowIdx): slowScale}
		}
		if opt.Validate() != nil {
			return
		}
		env := NewEnv(policies[int(pol)%len(policies)], opt)
		if err := env.CreateInput("in", 512*sim.MB); err != nil {
			return
		}
		if _, err := env.FW.Submit(workload.SortSpec("in", 2)); err != nil {
			return
		}
		env.Eng.RunFor(time.Minute)
	})
}

// TestOverlongOperationsTimeOut: a disk scale or map CPU rate that makes
// an operation outlast the clock's range leaves the job unfinished at
// the horizon, as a merely very slow one does; the operation's duration
// saturates instead of wrapping into an instant one.
func TestOverlongOperationsTimeOut(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ scale, cpu float64 }{{1e-9, 0}, {1e-12, 0}, {1, 1e-3}, {1, 1000}} {
		opt := Options{Workers: 3, Seed: 1, SlowNodes: map[int]float64{0: c.scale}}
		if err := opt.Validate(); err != nil {
			t.Fatal(err)
		}
		env := NewEnv(DYRS, opt)
		env.CreateInput("in", sim.GB)
		spec := workload.SortSpec("in", 4)
		if c.cpu > 0 {
			spec.MapCPUPerByte = c.cpu
		}
		j, err := env.RunJob(spec)
		if j == nil {
			t.Fatal(err)
		}
		if err == nil {
			t.Errorf("disk scale %g, map CPU %g s/B: job finished in %v; want a timeout at 1h", c.scale, c.cpu, j.Duration())
		}
	}
}
