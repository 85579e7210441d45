package experiments

import (
	"fmt"

	"dyrs/internal/compute"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// HiveRow is one query's results across configurations (Fig. 4).
type HiveRow struct {
	Query     string
	InputGB   float64
	Durations map[Policy]float64 // seconds, per policy
}

// Speedup reports the policy's speedup relative to HDFS.
func (r HiveRow) Speedup(p Policy) float64 {
	return metrics.Speedup(r.Durations[HDFS], r.Durations[p])
}

// Normalized reports the policy's duration normalized to HDFS (Fig. 4a's
// y-axis).
func (r HiveRow) Normalized(p Policy) float64 {
	if r.Durations[HDFS] == 0 {
		return 0
	}
	return r.Durations[p] / r.Durations[HDFS]
}

// HiveReport aggregates the Fig. 4 experiment.
type HiveReport struct {
	Rows []HiveRow
}

// MeanSpeedup reports the average speedup of a policy across queries.
func (h HiveReport) MeanSpeedup(p Policy) float64 {
	if len(h.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range h.Rows {
		sum += r.Speedup(p)
	}
	return sum / float64(len(h.Rows))
}

// MaxSpeedup reports the largest speedup of a policy and the query
// achieving it.
func (h HiveReport) MaxSpeedup(p Policy) (float64, string) {
	best, q := 0.0, ""
	for _, r := range h.Rows {
		if s := r.Speedup(p); s > best {
			best, q = s, r.Query
		}
	}
	return best, q
}

// String renders the report in Fig. 4's layout: queries sorted by input
// size, durations normalized to HDFS.
func (h HiveReport) String() string {
	t := NewTable("Fig 4 — Hive query durations (normalized to HDFS; queries sorted by input size)",
		"query", "input", "HDFS", "RAM", "Ignem", "DYRS", "DYRS speedup")
	for _, r := range h.Rows {
		t.AddRow(r.Query, fmt.Sprintf("%.1fGB", r.InputGB),
			fmt.Sprintf("%.1fs", r.Durations[HDFS]),
			fmt.Sprintf("%.2fx", r.Normalized(RAM)),
			fmt.Sprintf("%.2fx", r.Normalized(Ignem)),
			fmt.Sprintf("%.2fx", r.Normalized(DYRS)),
			Pct(r.Speedup(DYRS)))
	}
	out := t.String()
	dm := h.MeanSpeedup(DYRS)
	dx, q := h.MaxSpeedup(DYRS)
	out += fmt.Sprintf("DYRS: mean speedup %s, max %s (%s); RAM mean %s; Ignem mean %s\n",
		Pct(dm), Pct(dx), q, Pct(h.MeanSpeedup(RAM)), Pct(h.MeanSpeedup(Ignem)))
	return out
}

// RunHiveQuery runs one multi-stage query in a fresh environment under
// the given policy, with persistent interference slowing one node (the
// heterogeneity setup of §V-C), and returns the end-to-end query
// duration in seconds.
func RunHiveQuery(q workload.HiveQuery, policy Policy, seed int64) (float64, error) {
	env := NewEnv(policy, DefaultOptions(seed))
	env.SlowNodeInterference(0)
	if err := env.WarmupEstimates(); err != nil {
		return 0, err
	}

	if err := env.CreateInput(q.TableName(), q.InputSize); err != nil {
		return 0, err
	}
	start := env.Eng.Now()
	input := q.TableName()
	var last *compute.Job
	for stage := 0; stage < q.Stages; stage++ {
		spec := q.StageSpec(stage, input)
		spec.Migrate = true // later stages too: Known deviation 8 (EXPERIMENTS.md)
		j, err := env.RunJob(spec)
		if err != nil {
			return 0, err
		}
		last = j
		if stage+1 < q.Stages {
			// Materialize the stage output as the next stage's input.
			out := j.OutputBytes
			if out < sim.MB {
				out = sim.MB
			}
			input = fmt.Sprintf("%s-int%d", q.Name, stage)
			if _, err := env.FS.CreateFile(input, out); err != nil {
				return 0, err
			}
		}
	}
	return last.Finished.Sub(start).Seconds(), nil
}

// RunHive runs the full ten-query suite under all four configurations
// (Fig. 4). Each query runs in isolation, as in the paper.
func RunHive(seed int64) (HiveReport, error) {
	var rep HiveReport
	for _, q := range workload.TPCDSQueries() {
		row := HiveRow{
			Query:     q.Name,
			InputGB:   float64(q.InputSize) / float64(sim.GB),
			Durations: make(map[Policy]float64),
		}
		for _, p := range AllPolicies {
			d, err := RunHiveQuery(q, p, seed)
			if err != nil {
				return rep, fmt.Errorf("hive %s/%s: %w", q.Name, p, err)
			}
			row.Durations[p] = d
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// hiveExperiment registers Fig. 4.
func hiveExperiment() Experiment {
	return Experiment{
		Name:    "hive",
		Aliases: []string{"fig4"},
		Summary: "Fig. 4: ten Hive queries under all four configurations",
		Run:     func(seed int64) (any, error) { return RunHive(seed) },
		Merge: func(rep *FullReport, result any) {
			for _, r := range result.(HiveReport).Rows {
				rep.Hive = append(rep.Hive, HiveRowJSON{
					Query: r.Query, InputGB: r.InputGB,
					Durations: r.Durations, Speedup: r.Speedup(DYRS),
				})
			}
		},
	}
}
