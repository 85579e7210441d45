package experiments

import (
	"fmt"
	"time"

	"dyrs/internal/cache"
	"dyrs/internal/compute"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
)

// HotColdConfig names a configuration in the hot/cold comparison.
type HotColdConfig string

// The compared configurations.
const (
	HCBaseline HotColdConfig = "HDFS"
	HCCache    HotColdConfig = "PACMan-like cache"
	HCDYRS     HotColdConfig = "DYRS"
	HCBoth     HotColdConfig = "cache + DYRS"
)

// HotColdConfigs lists the configurations in presentation order.
var HotColdConfigs = []HotColdConfig{HCBaseline, HCCache, HCDYRS, HCBoth}

// HotColdRow is one configuration's outcome.
type HotColdRow struct {
	Config       HotColdConfig
	HotMean      float64 // seconds, jobs re-reading the shared hot table
	ColdMean     float64 // seconds, jobs reading fresh singly-accessed data
	CacheHitRate float64
}

// HotColdReport compares caching and migration on a workload that mixes
// repeatedly-read (hot) data with singly-accessed (cold) data — the
// paper's central motivation: caching cannot help cold reads (§I), DYRS
// can, and the two compose.
type HotColdReport struct {
	Rows []HotColdRow
}

// String renders the comparison.
func (r HotColdReport) String() string {
	t := NewTable("Hot vs cold data — caching, migration, and both (mean job seconds)",
		"config", "hot jobs", "cold jobs", "cache hit rate")
	for _, row := range r.Rows {
		hr := ""
		if row.Config == HCCache || row.Config == HCBoth {
			hr = fmt.Sprintf("%.0f%%", row.CacheHitRate*100)
		}
		t.AddRow(string(row.Config),
			fmt.Sprintf("%.1f", row.HotMean),
			fmt.Sprintf("%.1f", row.ColdMean), hr)
	}
	return t.String()
}

// RunHotCold runs the hot/cold workload under each configuration.
func RunHotCold(seed int64) (HotColdReport, error) {
	var rep HotColdReport
	const (
		hotJobs  = 6
		coldJobs = 6
		jobSize  = 4 * sim.GB
	)
	for _, cfgName := range HotColdConfigs {
		policy := HDFS
		if cfgName == HCDYRS || cfgName == HCBoth {
			policy = DYRS
		}
		env := NewEnv(policy, DefaultOptions(seed))
		var ch *cache.Cache
		if cfgName == HCCache || cfgName == HCBoth {
			var err error
			ch, err = cache.New(env.FS, 16*sim.GB, cache.LRU)
			if err != nil {
				return rep, err
			}
		}
		if err := env.CreateInput("hot-table", jobSize); err != nil {
			return rep, err
		}
		for i := 0; i < coldJobs; i++ {
			if err := env.CreateInput(fmt.Sprintf("cold-%d", i), jobSize); err != nil {
				return rep, err
			}
		}
		mkSpec := func(name, input string) compute.JobSpec {
			return compute.JobSpec{
				Name:             name,
				InputFiles:       []string{input},
				MapCPUPerByte:    0.8 / float64(256*sim.MB),
				MapOutputRatio:   0.1,
				Reducers:         4,
				OutputRatio:      1,
				PlatformOverhead: 9 * time.Second,
				TaskOverhead:     500 * time.Millisecond,
				Migrate:          true,
				ImplicitEvict:    true,
			}.DefaultOverheads()
		}
		// Interleave: hot job, cold job, hot job, ... spaced 20s apart so
		// each mostly runs alone (isolating read-source effects).
		at := sim.Duration(0)
		for i := 0; i < hotJobs+coldJobs; i++ {
			var spec compute.JobSpec
			if i%2 == 0 {
				spec = mkSpec(fmt.Sprintf("hot-%d", i/2), "hot-table")
			} else {
				spec = mkSpec(fmt.Sprintf("cold-%d", i/2), fmt.Sprintf("cold-%d", i/2))
			}
			env.FW.SubmitAt(sim.Time(at), spec, nil)
			at += 25 * time.Second
		}
		if err := env.WaitJobs(hotJobs+coldJobs, Hour); err != nil {
			return rep, fmt.Errorf("hotcold %s: %w", cfgName, err)
		}
		hot := metrics.NewSample()
		cold := metrics.NewSample()
		for _, j := range env.FW.Results() {
			if j.Spec.InputFiles[0] == "hot-table" {
				hot.Add(j.Duration().Seconds())
			} else {
				cold.Add(j.Duration().Seconds())
			}
		}
		row := HotColdRow{Config: cfgName, HotMean: hot.Mean(), ColdMean: cold.Mean()}
		if ch != nil {
			row.CacheHitRate = ch.HitRate()
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// hotcoldExperiment registers the cache-vs-migration study.
func hotcoldExperiment() Experiment {
	return Experiment{
		Name:    "hotcold",
		Summary: "extension: PACMan-like cache vs DYRS on hot/cold data",
		Run:     func(seed int64) (any, error) { return RunHotCold(seed) },
		Merge: func(rep *FullReport, result any) {
			rep.HotCold = result.(HotColdReport).Rows
		},
	}
}
