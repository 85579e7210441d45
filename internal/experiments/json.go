package experiments

import (
	"encoding/json"
	"io"

	"dyrs/internal/runner"
	"dyrs/internal/sim"
)

// FullReport aggregates every experiment into one JSON-serializable
// document, so downstream tooling (plotting scripts, regression
// trackers) can consume the evaluation without parsing text tables.
type FullReport struct {
	Seed int64 `json:"seed"`

	Trace struct {
		MeanUtilization    float64 `json:"mean_utilization"`
		FractionUnder4Pct  float64 `json:"fraction_under_4pct"`
		FractionLeadCovers float64 `json:"fraction_lead_covers_read"`
		MeanLeadSeconds    float64 `json:"mean_lead_seconds"`
	} `json:"trace"`

	Hive []HiveRowJSON `json:"hive"`

	SWIM struct {
		MeanJobSeconds map[Policy]float64            `json:"mean_job_seconds"`
		BinMeans       map[Policy]map[string]float64 `json:"bin_means"`
		MapperMean     map[Policy]float64            `json:"mapper_mean_seconds"`
		DYRSBytes      sim.Bytes                     `json:"dyrs_bytes_migrated"`
		HypBytes       sim.Bytes                     `json:"hypothetical_bytes"`
	} `json:"swim"`

	Fig8 struct {
		SlowNode int                         `json:"slow_node"`
		Reads    map[string]map[Policy][]int `json:"reads"`
	} `json:"fig8"`

	TableII []TableIIRow `json:"table2"`

	Fig10 struct {
		NaiveSlowTail    int     `json:"naive_slow_tail"`
		NaiveOverhangSec float64 `json:"naive_overhang_seconds"`
		DYRSSlowTail     int     `json:"dyrs_slow_tail"`
		DYRSOverhangSec  float64 `json:"dyrs_overhang_seconds"`
	} `json:"fig10"`

	Fig11 []Fig11Row `json:"fig11"`

	Motivation MotivationReport `json:"motivation"`

	Order []OrderRowJSON `json:"order"`

	HotCold []HotColdRow `json:"hotcold"`

	Iterative []IterativeRow `json:"iterative"`

	Scale []ScaleRow `json:"scale"`

	ScaleShard []ScaleShardRow `json:"scaleshard"`

	Serving []ServingPolicyRow `json:"serving"`
}

// HiveRowJSON is the JSON form of one Hive query result.
type HiveRowJSON struct {
	Query     string             `json:"query"`
	InputGB   float64            `json:"input_gb"`
	Durations map[Policy]float64 `json:"durations_seconds"`
	Speedup   float64            `json:"dyrs_speedup"`
}

// OrderRowJSON is the JSON form of one ordering-policy result.
type OrderRowJSON struct {
	Order     string  `json:"order"`
	MeanJob   float64 `json:"mean_job_seconds"`
	SmallMean float64 `json:"small_mean_seconds"`
	LargeMean float64 `json:"large_mean_seconds"`
}

// RunAllParallel executes every registered experiment on a worker pool
// of the given size (jobs <= 0 means GOMAXPROCS) and merges the results
// into one report in registry order, so the output is byte-identical at
// any worker count. Progress, when non-nil, receives the runner's
// serialized start/done events.
func RunAllParallel(seed int64, jobs int, progress func(runner.Event)) (*FullReport, error) {
	reg := Registry()
	results := runner.Run(Jobs(reg, seed), runner.Options{Jobs: jobs, Progress: progress})
	if err := runner.FirstError(results); err != nil {
		return nil, err
	}
	out := &FullReport{Seed: seed}
	for i, res := range results {
		reg[i].Merge(out, res.Value)
	}
	return out, nil
}

// Jobs adapts experiments to runner jobs at the given seed, preserving
// order.
func Jobs(exps []Experiment, seed int64) []runner.Job {
	out := make([]runner.Job, len(exps))
	for i, exp := range exps {
		out[i] = runner.Job{
			Name: exp.Name,
			Run:  func() (any, error) { return exp.Run(seed) },
		}
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *FullReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
