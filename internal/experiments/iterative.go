package experiments

import (
	"fmt"
	"time"

	"dyrs/internal/compute"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
)

// IterativeRow is one policy's per-iteration durations for an iterative
// analytics job (K-Means / Logistic-Regression style).
type IterativeRow struct {
	Policy     Policy
	Iterations []float64 // seconds per iteration
}

// FirstOverSteady reports iteration-1 duration over the mean of later
// iterations — the paper's "first iteration runs 15x / 2.5x longer"
// metric (§I).
func (r IterativeRow) FirstOverSteady() float64 {
	if len(r.Iterations) < 2 {
		return 0
	}
	var rest float64
	for _, d := range r.Iterations[1:] {
		rest += d
	}
	rest /= float64(len(r.Iterations) - 1)
	if rest == 0 {
		return 0
	}
	return r.Iterations[0] / rest
}

// IterativeReport compares the cold-start penalty of iterative jobs with
// and without migration.
type IterativeReport struct {
	Rows []IterativeRow
}

// String renders the comparison.
func (r IterativeReport) String() string {
	t := NewTable("Iterative job (RDD-style caching after iteration 1) — per-iteration seconds",
		"policy", "iter1", "iter2", "iter3", "iter4", "iter1/steady")
	for _, row := range r.Rows {
		cells := []any{string(row.Policy)}
		for _, d := range row.Iterations {
			cells = append(cells, fmt.Sprintf("%.1f", d))
		}
		cells = append(cells, fmt.Sprintf("%.1fx", row.FirstOverSteady()))
		t.AddRow(cells...)
	}
	return t.String()
}

// RunIterative models an iterative framework job: iteration 1 reads the
// training set cold from the DFS; later iterations hit the framework's
// in-memory RDD cache and are compute-bound. The paper's §I observation
// is that the cold first read dominates (15x for logistic regression);
// migrating the input during the driver's start-up lead-time removes
// most of that penalty.
func RunIterative(seed int64) (IterativeReport, error) {
	var rep IterativeReport
	const (
		inputSize  = 8 * sim.GB
		iterations = 4
	)
	for _, policy := range []Policy{HDFS, DYRS} {
		env := NewEnv(policy, DefaultOptions(seed))
		if err := env.CreateInput("training-set", inputSize); err != nil {
			return rep, err
		}
		row := IterativeRow{Policy: policy}
		for iter := 0; iter < iterations; iter++ {
			spec := compute.JobSpec{
				Name:           fmt.Sprintf("iter-%d", iter),
				InputFiles:     []string{"training-set"},
				MapCPUPerByte:  0.5 / float64(256*sim.MB), // gradient pass
				MapOutputRatio: 1e-4,                      // model update only
				Reducers:       1,
				OutputRatio:    1,
			}.DefaultOverheads()
			if iter == 0 {
				// The driver start-up (SparkContext, executor launch) is
				// the lead-time available to migration.
				spec.PlatformOverhead = 8 * time.Second
				spec.Migrate = true
			} else {
				// Later iterations run inside warm executors over the
				// RDD cache: no DFS read, tiny scheduling overhead.
				spec.PlatformOverhead = 300 * time.Millisecond
			}
			if iter == 1 {
				// Iteration 1 materialized the RDD: pin the input so
				// iterations 2+ read from executor memory.
				if _, err := migration.PinFiles(env.FS, []string{"training-set"}); err != nil {
					return rep, err
				}
			}
			j, err := env.RunJob(spec)
			if err != nil {
				return rep, err
			}
			row.Iterations = append(row.Iterations, j.Duration().Seconds())
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// iterativeExperiment registers the iterative-job cold-start study.
func iterativeExperiment() Experiment {
	return Experiment{
		Name:    "iterative",
		Summary: "extension: cold-start penalty of iterative jobs",
		Run:     func(seed int64) (any, error) { return RunIterative(seed) },
		Merge: func(rep *FullReport, result any) {
			rep.Iterative = result.(IterativeReport).Rows
		},
	}
}
