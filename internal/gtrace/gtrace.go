// Package gtrace synthesizes a Google-cluster-trace-like workload record
// and reruns the paper's motivation analyses on it (§II, Figs. 1-3):
// per-node disk-utilization time series at 5-minute granularity, the
// cluster-wide utilization CDF, and the job lead-time vs read-time
// comparison.
//
// The real 2011 Google trace is a multi-GB proprietary download; this
// generator is calibrated to the statistics the paper reports from it —
// mean disk utilization ~3.1%, 80% of samples under 4%, strong
// cross-node heterogeneity (busy nodes 5-13x idle ones), mean job
// lead-time 8.8s, and ~81% of jobs with lead-time exceeding read-time —
// so the analysis pipeline and the resulting figures keep their shape.
package gtrace

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"dyrs/internal/metrics"
)

// Config parameterizes trace synthesis.
type Config struct {
	// Servers is the number of machines (the paper plots 3 in Fig. 1 and
	// samples 40 in Fig. 3).
	Servers int
	// Duration is the traced wall-clock span (24h in Figs. 1 and 3).
	Duration time.Duration
	// BinWidth is the utilization reporting granularity (5 minutes in
	// the trace).
	BinWidth time.Duration
	// Jobs is the number of jobs synthesized for the lead-time analysis.
	Jobs int
	// MeanLeadSeconds is the mean job lead-time (8.8s in the trace).
	MeanLeadSeconds float64
	// Seed drives all randomness.
	Seed int64

	// activityMedian and activitySigma shape the per-server lognormal
	// activity level; the defaults are calibrated to the published
	// utilization statistics.
	ActivityMedian float64
	ActivitySigma  float64
}

// DefaultConfig returns a configuration calibrated to the published
// trace statistics.
func DefaultConfig() Config {
	return Config{
		Servers:         40,
		Duration:        24 * time.Hour,
		BinWidth:        5 * time.Minute,
		Jobs:            2000,
		MeanLeadSeconds: 8.8,
		Seed:            1,
		ActivityMedian:  0.008,
		ActivitySigma:   1.3,
	}
}

// Job is one synthesized job for the Fig. 2 analysis.
type Job struct {
	// Tasks is the number of tasks in the job.
	Tasks int
	// LeadSeconds is submission-to-first-task time.
	LeadSeconds float64
	// ReadSeconds is the summed task IO time — the paper's (over-)
	// estimate of the time to read the inputs into memory.
	ReadSeconds float64
}

// Ratio reports lead-time over read-time.
func (j Job) Ratio() float64 { return j.LeadSeconds / j.ReadSeconds }

// taskRecord is one task's footprint in the trace: when it ran and how
// much disk IO time it accumulated, mirroring the per-task IO records the
// Google trace provides at 5-minute granularity.
type taskRecord struct {
	// Start and End are seconds from trace start.
	Start, End float64
	// IOSeconds is total disk IO time within [Start, End). The paper's
	// analysis assumes each task performs IO at a constant rate.
	IOSeconds float64
}

// Trace is a synthesized cluster trace's derived utilization data and
// jobs. The per-server task records Generate derives Util from are
// scratch: no analysis reads them, so the trace does not keep them.
type Trace struct {
	Cfg Config
	// Util[s][b] is server s's disk utilization (0..1) during bin b,
	// derived from server s's task records by the paper's §II-B
	// pipeline.
	Util [][]float64
	// Jobs are the synthesized jobs for the lead-time analysis.
	Jobs []Job
}

// Generate synthesizes a trace using the paper's methodology in reverse:
// it first synthesizes per-server task records (Poisson arrivals whose
// rate follows a lognormal per-server activity level, exponential
// durations, and a constant per-task IO rate), then derives per-node
// utilization exactly as §II-B does — per-second utilization is the sum
// of the IO rates of active tasks, averaged into 5-minute bins. One task
// buffer serves every server in turn.
func Generate(cfg Config) *Trace { return generate(cfg, nil) }

// generate is Generate that also passes each server's task records to
// onServer, if set, before the buffer holding them is reused.
func generate(cfg Config, onServer func(s int, tasks []taskRecord)) *Trace {
	if cfg.Servers <= 0 || cfg.Duration <= 0 || cfg.BinWidth <= 0 {
		panic("gtrace: invalid config")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{Cfg: cfg, Util: make([][]float64, cfg.Servers)}
	var tasks []taskRecord

	const (
		meanDur    = 240.0 // seconds, mean task duration
		meanIOFrac = 0.16  // mean fraction of a task's lifetime spent on IO
	)
	span := cfg.Duration.Seconds()
	for s := 0; s < cfg.Servers; s++ {
		// Per-server activity level: lognormal, so most servers are idle
		// and a few heavily loaded — the cross-node heterogeneity of
		// Fig. 1. A small fraction of servers host an IO-intensive
		// application (the paper's explanation for its busy node 1).
		activity := cfg.ActivityMedian * math.Exp(cfg.ActivitySigma*rng.NormFloat64())
		if rng.Float64() < 0.05 {
			activity *= 8
		}
		// Arrival rate that hits the target utilization in expectation:
		// E[util] = lambda * meanDur * meanIOFrac.
		lambda := activity / (meanDur * meanIOFrac)
		// Start the arrival process before the window so utilization is
		// in steady state at t=0.
		at := -3 * meanDur
		tasks = tasks[:0]
		for {
			at += rng.ExpFloat64() / lambda
			if at >= span {
				break
			}
			dur := rng.ExpFloat64() * meanDur
			if dur < 1 {
				dur = 1
			}
			ioFrac := 0.02 + rng.Float64()*0.28
			if rng.Float64() < 0.03 {
				ioFrac = 0.5 + 0.4*rng.Float64() // IO-heavy outlier task
			}
			tasks = append(tasks, taskRecord{
				Start:     at,
				End:       at + dur,
				IOSeconds: dur * ioFrac,
			})
		}
		if onServer != nil {
			onServer(s, tasks)
		}
		t.Util[s] = deriveUtilization(tasks, span, cfg.BinWidth.Seconds())
	}

	t.Jobs = synthesizeJobs(rng, cfg)
	return t
}

// deriveUtilization implements the paper's §II-B analysis: each task
// performs IO at constant rate IOSeconds/(End-Start); a bin's utilization
// is the summed IO time of tasks active in the bin divided by the bin
// width, capped at the device's capacity (1.0).
func deriveUtilization(tasks []taskRecord, span, binWidth float64) []float64 {
	bins := int(span / binWidth)
	util := make([]float64, bins)
	for _, task := range tasks {
		dur := task.End - task.Start
		if dur <= 0 {
			continue
		}
		rate := task.IOSeconds / dur
		first := int(task.Start / binWidth)
		last := int(task.End / binWidth)
		if first < 0 {
			first = 0
		}
		for b := first; b <= last && b < bins; b++ {
			binStart := float64(b) * binWidth
			binEnd := binStart + binWidth
			lo := math.Max(task.Start, binStart)
			hi := math.Min(task.End, binEnd)
			if hi > lo {
				util[b] += rate * (hi - lo) / binWidth
			}
		}
	}
	for b := range util {
		if util[b] > 1 {
			util[b] = 1
		}
	}
	return util
}

// synthesizeJobs builds the job population for the Fig. 2 analysis.
func synthesizeJobs(rng *rand.Rand, cfg Config) []Job {
	jobs := make([]Job, cfg.Jobs)
	for i := range jobs {
		// Heavy-tailed task counts: most jobs are small, a few huge —
		// matching production MapReduce populations.
		u := rng.Float64()
		nTasks := int(math.Pow(u, -0.7))
		if nTasks < 1 {
			nTasks = 1
		}
		if nTasks > 5000 {
			nTasks = 5000
		}
		perTask := 0.3 + rng.ExpFloat64()*0.5
		jobs[i] = Job{
			Tasks:       nTasks,
			LeadSeconds: rng.ExpFloat64() * cfg.MeanLeadSeconds,
			ReadSeconds: float64(nTasks) * perTask,
		}
	}
	return jobs
}

// UtilizationSeries returns server s's utilization as a time series in
// hours (the Fig. 1 data for one node).
func (t *Trace) UtilizationSeries(s int) *metrics.TimeSeries {
	ts := metrics.NewTimeSeries("server")
	for b, u := range t.Util[s] {
		hour := float64(b) * t.Cfg.BinWidth.Hours()
		ts.Record(hour, u)
	}
	return ts
}

// MeanUtilization reports the mean over all servers and bins.
func (t *Trace) MeanUtilization() float64 {
	var sum float64
	var n int
	for _, series := range t.Util {
		for _, u := range series {
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ServerMeans returns per-server mean utilization.
func (t *Trace) ServerMeans() []float64 {
	out := make([]float64, len(t.Util))
	for s, series := range t.Util {
		var sum float64
		for _, u := range series {
			sum += u
		}
		out[s] = sum / float64(len(series))
	}
	return out
}

// RankedServers returns server indices sorted by descending mean
// utilization — used to pick the busy/medium/idle trio for Fig. 1.
func (t *Trace) RankedServers() []int {
	means := t.ServerMeans()
	idx := make([]int, len(means))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return means[idx[a]] > means[idx[b]] })
	return idx
}

// UtilizationSamples collects every (server, bin) utilization sample —
// the population behind the Fig. 3 CDF. Its FractionBelow(0.04)
// reproduces the "80% of time utilization is under 4%" claim.
func (t *Trace) UtilizationSamples() *metrics.Sample {
	s := metrics.NewSample()
	for _, series := range t.Util {
		for _, u := range series {
			s.Add(u)
		}
	}
	return s
}

// FractionLeadCoversRead reports the fraction of jobs whose lead-time
// exceeds their read-time — the paper's 81% feasibility headline.
func (t *Trace) FractionLeadCoversRead() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range t.Jobs {
		if j.LeadSeconds > j.ReadSeconds {
			n++
		}
	}
	return float64(n) / float64(len(t.Jobs))
}

// RatioPDF returns the Fig. 2 probability density of log10(lead/read),
// binned over [-3, 3].
func (t *Trace) RatioPDF(bins int) *metrics.Histogram {
	h := metrics.NewHistogram(-3, 3, bins)
	for _, j := range t.Jobs {
		h.Add(math.Log10(j.Ratio()))
	}
	return h
}

// MeanLeadSeconds reports the realized mean job lead-time.
func (t *Trace) MeanLeadSeconds() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range t.Jobs {
		sum += j.LeadSeconds
	}
	return sum / float64(len(t.Jobs))
}
