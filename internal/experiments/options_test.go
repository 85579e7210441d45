package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		want string // substring of the error; "" = valid
	}{
		{"defaults", DefaultOptions(1), ""},
		{"zero value", Options{}, ""},
		{"racks and core", Options{Workers: 8, Racks: 2, CoreBandwidth: 1e9}, ""},
		{"slow node", Options{SlowNodes: map[int]float64{6: 0.5}}, ""},
		{"binder", Options{MigBinder: "ignem"}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"negative racks", Options{Racks: -2}, "Racks"},
		{"negative sampling", Options{SampleEvery: -3}, "SampleEvery"},
		{"NaN core", Options{CoreBandwidth: math.NaN()}, "CoreBandwidth"},
		{"infinite core", Options{CoreBandwidth: math.Inf(1)}, "CoreBandwidth"},
		{"negative core", Options{CoreBandwidth: -1}, "CoreBandwidth"},
		{"slow node past default cluster", Options{SlowNodes: map[int]float64{7: 0.5}}, "index 7"},
		{"slow node past cluster", Options{Workers: 3, SlowNodes: map[int]float64{1: 0.5, 3: 0.5}}, "index 3"},
		{"negative slow node", Options{SlowNodes: map[int]float64{-1: 0.5}}, "index -1"},
		{"zero scale", Options{SlowNodes: map[int]float64{0: 0}}, "SlowNodes[0]"},
		{"NaN scale", Options{SlowNodes: map[int]float64{0: math.NaN()}}, "SlowNodes[0]"},
		{"infinite scale", Options{SlowNodes: map[int]float64{0: math.Inf(1)}}, "SlowNodes[0]"},
		{"unknown binder", Options{MigBinder: "bogus"}, "MigBinder"},
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
	f.Add(int8(7), int8(0), int8(0), 0.0, int8(-1), 1.0, uint8(0), uint8(3), false)
	f.Add(int8(8), int8(2), int8(4), 1e9, int8(1), 0.25, uint8(1), uint8(2), true)
	f.Add(int8(3), int8(5), int8(-1), -1.0, int8(5), 0.0, uint8(4), uint8(4), true)
	f.Add(int8(0), int8(0), int8(0), math.Inf(1), int8(0), math.NaN(), uint8(5), uint8(0), false)
	binders := []string{"", "dyrs", "ignem", "costaware", "bogus", "hdfs"}
	policies := []Policy{HDFS, RAM, Ignem, DYRS, Naive}

	f.Fuzz(func(t *testing.T, workers, racks, sample int8, core float64,
		slowIdx int8, slowScale float64, binder, pol uint8, traced bool) {
		opt := Options{
			Workers:       int(workers),
			Seed:          1,
			Racks:         int(racks),
			CoreBandwidth: core,
			Trace:         traced,
			SampleEvery:   int(sample),
			MigBinder:     binders[int(binder)%len(binders)],
		}
		if slowIdx != -1 { // -1 leaves SlowNodes unset
			opt.SlowNodes = map[int]float64{int(slowIdx): slowScale}
		}
		if opt.Validate() != nil {
			return
		}
		env := NewEnv(policies[int(pol)%len(policies)], opt)
		defer env.Close()
		if err := env.CreateInput("in", 512*sim.MB); err != nil {
			return
		}
		if _, err := env.FW.Submit(env.Prepare(workload.SortSpec("in", 2, true))); err != nil {
			return
		}
		env.Eng.RunFor(time.Minute)
	})
}
