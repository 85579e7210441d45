package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are the end-to-end metrics, measured with tracing off and
// reported per workload as the median over the run's reps.
var e2eMetrics = []metricDef{
	{"sim_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mib", "MiB", "lower", 0.05},
	{"live_mib", "MiB", "lower", 0.05},
	{okMetric, "ratio", "higher", 0.01},
}

// okMetric is the share of operations that did not fail. --compare
// counts any decrease as worse, not only one beyond its bound.
const okMetric = "ok_frac"

// absFloor is, per metric, the least change in the metric's unit that
// counts against its bound. Set-up lasts 0.02-0.15 s; on a shared
// 2-vCPU runner its IQR over one run's reps reaches 0.03 s, a quarter
// of the median, and a share of so short a median is within that noise.
var absFloor = map[string]float64{"setup_s": 0.05}

// tolerance is how far a metric may move from median before the move
// counts: its bound as a share of the median, or its absolute floor if
// that is larger.
func tolerance(def metricDef, median float64) float64 {
	return math.Max(def.Bound*math.Abs(median), absFloor[def.Name])
}

// e2eValue extracts an end-to-end metric from one rep.
func e2eValue(name string, r repResult) float64 {
	switch name {
	case "sim_s":
		return r.SimS
	case "setup_s":
		return r.SetupS
	case "alloc_mib":
		return r.AllocMiB
	case "live_mib":
		return r.LiveMiB
	case "ok_frac":
		return r.OKFrac
	}
	panic("unknown metric " + name)
}

// cpuLayers are the groups the traced rep's CPU profile is split into:
// the repository's modules, package sim split by receiver, and the Go
// runtime's GC and allocator.
var cpuLayers = []string{
	"sim.engine", "sim.resource", "sim.shard", "cluster", "dfs", "migration",
	"policy", "cache", "compute", "workload", "gtrace", "trace", "experiments",
	"benchmark", "runtime.gc", "runtime.malloc", "math_rand", "other",
}

// modelCounts are the per-layer counters a rep reads from the model.
var modelCounts = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.peak_queue", "count", "lower", 0},
	{"sim.flows", "count", "lower", 0},
	{"sim.flows_cancelled", "count", "lower", 0},
	{"sim.peak_flows", "count", "lower", 0},
	{"shard.windows", "count", "lower", 0},
	{"shard.solo_rounds", "count", "higher", 0},
	{"shard.stalls", "count", "lower", 0},
	{"shard.cross_msgs", "count", "lower", 0},
	{"dfs.read_mem_frac", "ratio", "higher", 0},
	{"migration.requested", "count", "lower", 0},
	{"migration.migrated", "count", "higher", 0},
	{"migration.missed_reads", "count", "lower", 0},
	{"migration.hits_per_migrated", "ratio", "higher", 0},
	{"migration.alg1_passes", "count", "lower", 0},
	{"migration.alg1_skips", "count", "higher", 0},
	{"policy.unassigned", "count", "lower", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"compute.jobs", "count", "higher", 0},
	{"compute.map_tasks", "count", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// layerMetrics lists every per-layer metric in output order: the
// model's counters, each seam's share of the traced rep's wall time
// (and its call count where calls are per operation), the CPU profile
// split, and the runtime and benchmark figures.
func layerMetrics() []metricDef {
	out := append([]metricDef(nil), modelCounts...)
	out = append(out,
		metricDef{"sim.ns_per_event", "ns", "lower", 0},
		metricDef{"sim.loop_self_s", "s", "lower", 0},
		metricDef{"shard.speedup", "ratio", "higher", 0},
	)
	for s := seamGen; s < numSeams; s++ {
		info := seamInfo[s]
		if info.perCall {
			out = append(out, metricDef{info.name + "_calls", "count", "lower", 0})
		}
		out = append(out, metricDef{info.name + "_frac", "frac", "lower", 0})
	}
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l, "frac", "lower", 0})
	}
	return append(out,
		metricDef{"runtime.mallocs", "count", "lower", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower", 0},
		metricDef{"runtime.peak_rss_mib", "MiB", "lower", 0},
		metricDef{"bench.traced_s", "s", "lower", 0},
		metricDef{"bench.trace_overhead", "ratio", "lower", 0},
		metricDef{"bench.attributed_frac", "frac", "higher", 0},
	)
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method Python's statistics.quantiles(xs, n=4) uses by
// default ("exclusive"), so spreads here match the ones a reader
// computes from the reported values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is one end-to-end metric over a run's reps.
type summary struct {
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	IQR      float64   `json:"iqr"`
	Spread   float64   `json:"spread"` // IQR / median
	Bound    float64   `json:"bound"`
	Unstable bool      `json:"unstable"` // IQR exceeds the metric's tolerance
}

func summarize(def metricDef, values []float64) summary {
	q1, med, q3 := quartiles(values)
	s := summary{Unit: def.Unit, Values: values, Median: med, Q1: q1, Q3: q3,
		IQR: q3 - q1, Bound: def.Bound, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	if med != 0 {
		s.Spread = s.IQR / math.Abs(med)
	}
	s.Unstable = s.IQR > tolerance(def, med)
	return s
}
