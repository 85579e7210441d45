// Command benchmark is the repository's end-to-end benchmark. It acts
// as the simulator's client: it generates each workload from a seed,
// drives the layers through their public functions, times set-up apart
// from the event loop, checks every output, and prints each metric with
// its name and unit. With -trace 1 it adds traced reps per workload
// that time every call the benchmark makes into a layer and split the
// event loop's CPU time by layer. Run it from the repository root:
//
//	bash benchmark/run.sh --workload scale --seed 42 --seconds 25 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// schema versions the -out report layout.
const schema = "dyrs-benchmark/v1"

// minRounds is the fewest reps a run takes of each workload, however
// short -seconds is, so every metric has a median and quartiles.
const minRounds = 3

// tracedReps is how many traced reps -trace 1 runs of each workload; the
// per-layer metrics come from the median one.
const tracedReps = 3

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	op   string // what one attempted operation is
	// parallel marks a workload on the multi-worker sharded executor;
	// its traced pass also times one run with a single worker.
	parallel bool
	run      func(size string, seed int64, m *meter) (outcome, error)
	// fidelity, where set, checks that run still repeats the experiments
	// runner it copies (see fidelity.go).
	fidelity func(seed int64) error
}

var workloads = []workloadDef{
	{
		name: "scale",
		why:  "migration master and slaves, Algorithm 1 passes and an event queue holding over 10^5 pre-scheduled reads; no dfs read path, cache, compute or tracer",
		op:   "migration request",
		run: func(size string, seed int64, m *meter) (outcome, error) {
			return runScale(scaleOptions(size, seed), m)
		},
		fidelity: scaleFidelity,
	},
	{
		name: "serving",
		why:  "open-loop Zipf reads on 200 nodes: per-read events, dfs reads, an LRU cache smaller than the hot set and tracer spans, and the GC they cause; up to 4,000 flows open at the diurnal peak",
		op:   "read request",
		run: func(size string, seed int64, m *meter) (outcome, error) {
			return runServing(servingPreset(size), seed, m)
		},
		fidelity: servingFidelity,
	},
	{
		name: "swim",
		why:  "compute scheduling, map reads, shuffle and replicated output writes beside migration, with a shallow event queue",
		op:   "job",
		run: func(size string, seed int64, m *meter) (outcome, error) {
			return runSwim(swimPreset(size), seed, m)
		},
		fidelity: swimFidelity,
	},
	{
		name:     "sharded",
		why:      "the sharded executor, Resource and per-node RNGs alone; dfs, migration, policy, cache and compute are bypassed",
		op:       "migration",
		parallel: true,
		run: func(size string, seed int64, m *meter) (outcome, error) {
			return runSharded(shardedOptions(size, seed), m)
		},
	},
}

// header records the runner class and settings a report was made on.
type header struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
	Size       string `json:"size"`
	Seconds    int    `json:"seconds"`
}

// repResult is one untraced rep's end-to-end measurements.
type repResult struct {
	SetupS    float64 `json:"setup_s"`
	SimS      float64 `json:"sim_s"`
	AllocMiB  float64 `json:"alloc_mib"`
	LiveMiB   float64 `json:"live_mib"`
	OKFrac    float64 `json:"ok_frac"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"digest,omitempty"`
	Err       string  `json:"error,omitempty"`
}

// workloadResult is everything a run measured on one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Op        string             `json:"op"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Reps      []repResult        `json:"reps"`
	Metrics   map[string]summary `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	def       workloadDef        // the workload measured
}

// report is the whole output of a run, as -out writes it.
type report struct {
	Schema    string            `json:"schema"`
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	names := fl.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", a comma-separated list, or all")
	seed := fl.Int64("seed", 42, "seed the workloads are generated from")
	seconds := fl.Int("seconds", 20, "time budget of the run; it takes at least 3 reps of each workload")
	traced := fl.Int("trace", 0, "1 adds traced reps per workload and reports per-layer metrics")
	size := fl.String("size", "full", "workload size: full or smoke")
	outPath := fl.String("out", "", "also write the full report as JSON to this file")
	cmp := fl.Bool("compare", false, "compare two -out reports: -compare old.json new.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		worse, err := compareFiles(fl.Arg(0), fl.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	sel, err := selectWorkloads(*names)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if err == nil && *size != "full" && *size != "smoke" {
		err = fmt.Errorf("-size must be full or smoke, not %q", *size)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}

	rep := measure(sel, *seed, *size, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
	rep.Header.Seconds = *seconds
	printReport(stdout, rep, *traced == 1)
	if *outPath != "" {
		if err := writeReport(*outPath, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, ok := resultLine(rep, *traced == 1)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func selectWorkloads(list string) ([]workloadDef, error) {
	if list == "all" {
		return workloads, nil
	}
	var sel []workloadDef
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				sel, found = append(sel, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	return sel, nil
}

// measure first checks that each selected workload still reproduces its
// experiments original, then runs rounds of untraced reps, one rep of
// each workload per round in order: at least minRounds, and then
// another only while it fits in the time budget, judged by the last
// round's length. Last, if asked, it runs tracedReps traced reps of
// each. The budget covers the check and keeps room for the traced reps.
func measure(sel []workloadDef, seed int64, size string, budget time.Duration, traced bool, log io.Writer) *report {
	start := time.Now()
	rep := &report{Schema: schema, Header: newHeader(seed, size)}
	reserve := 0 // rounds' worth of time the traced pass takes
	if traced {
		reserve = tracedReps
	}
	for _, w := range sel {
		res := &workloadResult{Name: w.name, Op: w.op, def: w}
		if w.fidelity != nil {
			if err := w.fidelity(seed); err != nil {
				res.Errors = append(res.Errors, "fidelity: "+err.Error())
			}
		}
		rep.Workloads = append(rep.Workloads, res)
		if traced && w.parallel {
			reserve = tracedReps + 1 // and the one-worker run
		}
	}
	var last time.Duration
	for round := 0; round < minRounds || time.Since(start)+time.Duration(1+reserve)*last <= budget; round++ {
		roundStart := time.Now()
		for _, res := range rep.Workloads {
			r, _ := runRep(res.def, size, seed, &meter{})
			res.Reps = append(res.Reps, r)
			fmt.Fprintf(log, "%s rep %d: setup %.4fs sim %.4fs alloc %.1fMiB live %.1fMiB %s\n",
				res.Name, round+1, r.SetupS, r.SimS, r.AllocMiB, r.LiveMiB, repStatus(r))
		}
		last = time.Since(roundStart)
	}
	for _, res := range rep.Workloads {
		res.finish()
		if traced {
			if err := res.tracedPass(size, seed); err != nil {
				res.Errors = append(res.Errors, "traced rep: "+err.Error())
				res.Correct = false
			}
			fmt.Fprintf(log, "%s traced reps done\n", res.Name)
		}
	}
	return rep
}

func repStatus(r repResult) string {
	if r.Err != "" {
		return "FAILED: " + r.Err
	}
	return "digest " + r.Digest[:12]
}

// runRep runs one rep from a clean heap and returns its measurements
// and outcome. A rep whose workload function or checks fail counts every operation
// it attempted as failed.
func runRep(w workloadDef, size string, seed int64, m *meter) (repResult, outcome) {
	runtime.GC()
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := w.run(size, seed, m)
	m.stop()
	runtime.ReadMemStats(&after)
	r := repResult{
		SetupS:    m.setup.Seconds(),
		SimS:      m.sim.Seconds(),
		AllocMiB:  mib(after.TotalAlloc - before.TotalAlloc),
		LiveMiB:   mib(m.liveBytes),
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if err == nil {
		err = m.err
	}
	if err == nil {
		r.Digest, err = digest(out.row)
	}
	if err != nil {
		r.Err = err.Error()
		r.Failed = r.Attempted
	}
	if r.Attempted > 0 {
		r.OKFrac = 1 - float64(r.Failed)/float64(r.Attempted)
	}
	return r, out
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// digest is the sha256 of a row's canonical JSON.
func digest(row any) (string, error) {
	b, err := json.Marshal(row)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// finish summarizes the reps and checks that every rep passed and
// produced the same digest.
func (res *workloadResult) finish() {
	res.Metrics = map[string]summary{}
	for _, def := range e2eMetrics {
		var vals []float64
		for _, r := range res.Reps {
			vals = append(vals, e2eValue(def.Name, r))
		}
		res.Metrics[def.Name] = summarize(def, vals)
	}
	for i, r := range res.Reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		switch {
		case r.Err != "":
			res.Errors = append(res.Errors, fmt.Sprintf("rep %d: %s", i+1, r.Err))
		case res.Digest == "":
			res.Digest = r.Digest
		case r.Digest != res.Digest:
			res.Errors = append(res.Errors, fmt.Sprintf("rep %d: digest %s differs from %s", i+1, r.Digest, res.Digest))
		}
	}
	res.Correct = len(res.Errors) == 0
}

// tracedPass runs tracedReps more reps of the workload with every seam
// timed and the simulation phase CPU-profiled, and fills res.Layers
// from the one whose simulation phase took the median time: one rep
// varies as much as the untraced reps do, and its share of the machine's
// slow spells would read as tracing overhead. Every traced digest must
// equal the untraced reps'.
func (res *workloadResult) tracedPass(size string, seed int64) error {
	simMed := res.Metrics["sim_s"].Median
	type tracedRep struct {
		simS   float64
		layers map[string]float64
	}
	var reps []tracedRep
	for i := 0; i < tracedReps; i++ {
		m := &meter{led: &ledger{}, prof: &bytes.Buffer{}}
		r, out := runRep(res.def, size, seed, m)
		rt := m.runtimeDelta(readRuntime())
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r.Err != "" {
			return errors.New(r.Err)
		}
		if r.Digest != res.Digest {
			return fmt.Errorf("traced digest %s differs from untraced %s", r.Digest, res.Digest)
		}
		layers, err := tracedLayers(m, out, rt)
		if err != nil {
			return err
		}
		reps = append(reps, tracedRep{r.SimS, layers})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].simS < reps[j].simS })
	mid := reps[len(reps)/2]
	layers := mid.layers
	if n := layers["sim.events"]; n > 0 {
		layers["sim.ns_per_event"] = simMed * 1e9 / n
	}
	layers["bench.trace_overhead"] = mid.simS/simMed - 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		layers["runtime.peak_rss_mib"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.def.parallel {
		one, _ := runRep(res.def, size, seed, &meter{workers: 1})
		if one.Err != "" {
			return fmt.Errorf("one-worker run: %s", one.Err)
		}
		layers["shard.speedup"] = one.SimS / simMed
	}
	res.Layers = layers
	return nil
}

// tracedLayers computes one traced rep's per-layer metrics from its
// ledger, CPU profile, model counters and runtime deltas.
func tracedLayers(m *meter, out outcome, rt runtimeSnap) (map[string]float64, error) {
	// The traced wall time is the rep itself: set-up, simulation and
	// trace export, without the benchmark's forced GC between phases.
	led := m.led
	var wall time.Duration
	for s := seam(0); s < numSeams; s++ {
		wall += led.self[s]
	}
	layers := map[string]float64{}
	for _, d := range layerMetrics() {
		layers[d.Name] = 0
	}
	for k, v := range out.counts {
		if _, ok := layers[k]; !ok {
			return nil, fmt.Errorf("undeclared per-layer metric %q", k)
		}
		layers[k] = v
	}
	layers["sim.events"] = float64(out.events)
	layers["sim.loop_self_s"] = led.self[seamSim].Seconds()
	attributed := led.self[seamSetup]
	for s := seamGen; s < numSeams; s++ {
		info := seamInfo[s]
		if info.perCall {
			layers[info.name+"_calls"] = float64(led.calls[s])
		}
		layers[info.name+"_frac"] = led.self[s].Seconds() / wall.Seconds()
		attributed += led.self[s]
	}
	shares, err := cpuShares(m.prof.Bytes())
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		layers["cpu."+l] = v
	}
	// The profile splits the event loop's self time; only the share it
	// cannot place in a layer stays unattributed.
	loop := led.self[seamSim].Seconds() * (1 - shares["other"])
	layers["bench.attributed_frac"] = (attributed.Seconds() + loop) / wall.Seconds()
	layers["bench.traced_s"] = wall.Seconds()

	layers["runtime.mallocs"] = float64(rt.mallocs)
	layers["runtime.gc_cycles"] = float64(rt.gcs)
	if rt.allCPU > 0 {
		layers["runtime.gc_cpu_frac"] = rt.gcCPU / rt.allCPU
	}
	return layers, nil
}

func newHeader(seed int64, size string) header {
	h := header{
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Seed:       seed,
		Size:       size,
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.GitSHA = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		h.GitSHA += dirty
	}
	return h
}

// cpuModel reads the processor model name, or returns the architecture
// where the kernel does not expose one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

func printReport(w io.Writer, rep *report, traced bool) {
	h := rep.Header
	fmt.Fprintf(w, "dyrs benchmark  nproc=%d cpu=%q GOMAXPROCS=%d GOGC=%s %s git=%s seed=%d size=%s seconds=%d\n",
		h.NProc, h.CPU, h.GOMAXPROCS, h.GOGC, h.GoVersion, h.GitSHA, h.Seed, h.Size, h.Seconds)
	for _, res := range rep.Workloads {
		status := "correct"
		if !res.Correct {
			status = "INCORRECT: " + strings.Join(res.Errors, "; ")
		}
		fmt.Fprintf(w, "\n%s: %d reps, %d/%d %ss failed, digest %s, %s\n",
			res.Name, len(res.Reps), res.Failed, res.Attempted, res.Op, res.Digest, status)
		fmt.Fprintf(w, "  %-10s %-6s %12s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "min", "max", "IQR", "spread", "bound")
		for _, def := range e2eMetrics {
			s := res.Metrics[def.Name]
			flag := ""
			if s.Unstable {
				flag = "  unstable"
			}
			fmt.Fprintf(w, "  %-10s %-6s %12.6g %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				def.Name, def.Unit, s.Median, s.Min, s.Max, s.IQR, 100*s.Spread, 100*def.Bound, flag)
			fmt.Fprintf(w, "  %-10s reps: %s\n", "", formatValues(s.Values))
		}
		if traced && res.Layers != nil {
			fmt.Fprintf(w, "  per-layer (median traced rep):\n")
			for _, d := range layerMetrics() {
				fmt.Fprintf(w, "    %-28s %14.6g %s\n", d.Name, res.Layers[d.Name], d.Unit)
			}
		}
	}
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.6g", v)
	}
	return strings.Join(parts, " ")
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the run's last output line: one JSON object with the
// end-to-end medians (untraced) or the per-layer metrics (traced).
// With several workloads each metric name is prefixed by its workload.
func resultLine(rep *report, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range rep.Workloads {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = res.Name + "."
		}
		if traced {
			for _, d := range layerMetrics() {
				line.Metrics[prefix+d.Name] = value{res.Layers[d.Name], d.Unit}
			}
			continue
		}
		for _, def := range e2eMetrics {
			line.Metrics[prefix+def.Name] = value{res.Metrics[def.Name].Median, def.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), line.Correct
}

// loadReport reads a report written with -out.
func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schema)
	}
	return &rep, nil
}
