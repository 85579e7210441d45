package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"dyrs/internal/experiments"
)

// The workload functions repeat experiments' runners step for step;
// these tests pin that, at the full Scale100 preset as well as at the
// smoke sizes every run checks, so a change to a runner they do not
// follow fails here instead of silently measuring something else.

func TestRunScaleRepeatsExperiments(t *testing.T) {
	opt := experiments.Scale100Options(7)
	want, err := experiments.RunScale(opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runScale(opt, &meter{})
	if err != nil {
		t.Fatal(err)
	}
	if got := *out.row.(*experiments.ScaleRow); !reflect.DeepEqual(got, want) {
		t.Fatalf("runScale row differs from RunScale:\n got %+v\nwant %+v", got, want)
	}
}

func TestFidelityChecks(t *testing.T) {
	for _, w := range workloads {
		if w.fidelity == nil {
			continue
		}
		if err := w.fidelity(7); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestFidelityFailureMakesRunIncorrect checks that a workload whose copy
// has drifted from its runner is reported incorrect.
func TestFidelityFailureMakesRunIncorrect(t *testing.T) {
	w := workloads[0]
	w.fidelity = func(int64) error { return errors.New("drifted") }
	rep := measure([]workloadDef{w}, 3, "smoke", 0, false, testWriter{t})
	if res := rep.Workloads[0]; res.Correct || len(res.Errors) == 0 {
		t.Fatalf("drifted workload reported correct: %+v", res.Errors)
	}
	if _, ok := resultLine(rep, false); ok {
		t.Fatal("result line reports a drifted workload as correct")
	}
}

// TestSmokeRunTracedAndUntraced runs every workload at the smoke size,
// untraced and traced; the traced pass fails if its digest differs from
// the untraced reps'. Every declared per-layer metric must be reported.
func TestSmokeRunTracedAndUntraced(t *testing.T) {
	rep := measure(workloads, 3, "smoke", 0, true, testWriter{t})
	for _, res := range rep.Workloads {
		if !res.Correct {
			t.Errorf("%s: %v", res.Name, res.Errors)
			continue
		}
		if len(res.Reps) != minRounds || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d reps, %d/%d failed", res.Name, len(res.Reps), res.Failed, res.Attempted)
		}
		for _, d := range layerMetrics() {
			if v, ok := res.Layers[d.Name]; !ok || math.IsNaN(v) {
				t.Errorf("%s: per-layer metric %s missing or NaN", res.Name, d.Name)
			}
		}
		if res.Layers["sim.events"] == 0 {
			t.Errorf("%s: no events counted", res.Name)
		}
	}
	line, ok := resultLine(rep, true)
	if !ok || !strings.HasPrefix(line, `{"correct":true,`) {
		t.Errorf("result line %q", line)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "sim_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: okMetric, Better: "higher", Bound: 0.01}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		def      metricDef
		old, cur []float64
		want     string
	}{
		{lower, steady, []float64{1.03, 1.04, 1.02, 1.03, 1.05}, "same"},
		{lower, steady, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{lower, steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		// A noisy side leaves the call unresolved unless every rep of
		// one side beats every rep of the other.
		{lower, steady, []float64{0.7, 1.3, 0.8, 1.2, 1.0}, "unresolved"},
		{lower, steady, []float64{0.5, 0.9, 0.6, 0.8, 0.7}, "better"},
		{lower, steady, []float64{1.1, 1.9, 1.2, 1.8, 1.5}, "worse"},
		{higher, []float64{1, 1, 1}, []float64{1, 1, 1}, "same"},
		{higher, []float64{1, 1, 1}, []float64{0, 0, 0}, "worse"},
		// One failed rep in five leaves the median at 1 but is worse.
		{higher, []float64{1, 1, 1, 1, 1}, []float64{1, 0, 1, 1, 1}, "worse"},
		{higher, []float64{1, 0, 1, 1, 1}, []float64{1, 1, 1, 1, 1}, "better"},
		// A zero median compares by absolute change.
		{lower, []float64{0, 0, 0}, []float64{0, 0, 0}, "same"},
		{lower, []float64{0, 0, 0}, []float64{1, 1, 1}, "worse"},
		// Set-up changes below the absolute floor are not counted.
		{setup, []float64{0.050, 0.050, 0.050}, []float64{0.090, 0.090, 0.090}, "same"},
		{setup, []float64{0.050, 0.050, 0.050}, []float64{0.110, 0.110, 0.110}, "worse"},
		{setup, []float64{1.0, 1.0, 1.0}, []float64{1.2, 1.2, 1.2}, "worse"},
	} {
		if got := verdict(c.def, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestCompareCountsFailures checks that --compare reports a change worse
// when its run is incorrect or fails more operations, even where every
// metric's median is unchanged.
func TestCompareCountsFailures(t *testing.T) {
	reps := func(ok ...float64) *workloadResult {
		res := &workloadResult{Name: "scale", Op: "migration request", Digest: "d"}
		for _, v := range ok {
			r := repResult{SetupS: 0.1, SimS: 1, AllocMiB: 10, LiveMiB: 5, OKFrac: v, Attempted: 10, Digest: "d"}
			if v < 1 {
				r.Failed, r.Err = 10, "check failed"
			}
			res.Reps = append(res.Reps, r)
		}
		res.finish()
		return res
	}
	write := func(res *workloadResult) string {
		path := t.TempDir() + "/r.json"
		if err := writeReport(path, &report{Schema: schema, Workloads: []*workloadResult{res}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write(reps(1, 1, 1, 1, 1))
	for _, c := range []struct {
		name string
		cur  *workloadResult
		bad  bool
	}{
		{"same", reps(1, 1, 1, 1, 1), false},
		{"one failed rep", reps(1, 1, 0, 1, 1), true},
	} {
		var out strings.Builder
		bad, err := compareFiles(good, write(c.cur), &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad {
			t.Errorf("%s: compare reported bad=%v, want %v:\n%s", c.name, bad, c.bad, out.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "main.runScale"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "dyrs/internal/dfs.(*FS).CreateFile"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "dyrs/internal/dfs.(*FS).CreateFile"}, "dfs"},
		{[]string{"sort.Slice", "dyrs/internal/migration.(*Coordinator).Evict"}, "migration"},
		{[]string{"dyrs/internal/sim.eventQueue.siftDown", "dyrs/internal/sim.(*Engine).step"}, "sim.engine"},
		{[]string{"dyrs/internal/sim.(*Resource).completeRipe"}, "sim.resource"},
		{[]string{"dyrs/internal/sim.flowLess", "dyrs/internal/sim.(*Resource).heapUp"}, "sim.resource"},
		{[]string{"dyrs/internal/sim.(*ShardedEngine).runRound"}, "sim.shard"},
		{[]string{"math/rand.(*rngSource).Uint64", "dyrs/internal/experiments.RunScaleShard.func2"}, "math_rand"},
		{[]string{"dyrs/internal/metrics.(*Sample).Add", "main.runSwim.func2"}, "benchmark"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for i := 0; i < len(doc.Workloads) && i < len(workloads); i++ {
		if got, want := doc.Workloads[i], workloads[i]; got.Name != want.name || got.Why != want.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), program %q (%q)", i, got.Name, got.Why, want.name, want.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program %+v", doc.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(doc.PerLayer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's layerMetrics()")
	}
}
