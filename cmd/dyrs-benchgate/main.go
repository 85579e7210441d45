// Command dyrs-benchgate enforces the repository's committed benchmark
// baseline. It parses standard Go benchmark output (`go test -bench`),
// takes the per-benchmark median ns/op across -count repetitions, and
// compares it against BENCH_BASELINE.json, failing with a non-zero exit
// when any gated benchmark regressed by more than -threshold. This
// replaces the advisory-only benchstat comparison the CI bench job used
// to run: a regression now fails the build instead of scrolling past in
// a log.
//
// Usage:
//
//	go test -run '^$' -bench 'Scale|SimEngineEvents' -benchmem -count 6 . > head.txt
//	dyrs-benchgate head.txt                    # gate vs BENCH_BASELINE.json
//	dyrs-benchgate -write head.txt             # (re)generate the baseline
//	dyrs-benchgate -inject 2.0 head.txt        # self-test: must fail
//
// Benchmarks present in the baseline but missing from the input fail
// the gate (so a gated benchmark cannot be silently deleted); new
// benchmarks absent from the baseline are reported but do not fail.
// The baseline records the Go version and platform it was measured on;
// numbers from a different runner class are comparable only loosely, so
// maintainers regenerate with -write when the reference hardware moves.
//
// A baseline entry may also carry allocs_per_op: -write records the
// median allocs/op of every benchmark whose input lines have -benchmem
// columns, and the gate then fails when the head median exceeds it by
// more than -threshold, or when the input lacks the column. Allocation
// counts of a one-iteration macro run repeat to within a few objects,
// so the same threshold is a tight bound there.
//
// -inject multiplies every head median, ns/op and allocs/op, by the
// given factor before comparing. CI uses it to prove the gate actually
// trips: a run with -inject 2.0 simulating a 2x slowdown must exit
// non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineSchema versions BENCH_BASELINE.json so the gate rejects
// documents written by an incompatible tool.
const baselineSchema = "dyrs-benchgate/v1"

// Baseline is the committed reference document.
type Baseline struct {
	Schema    string          `json:"schema"`
	Note      string          `json:"note,omitempty"`
	GoVersion string          `json:"go_version,omitempty"`
	GOOS      string          `json:"goos,omitempty"`
	GOARCH    string          `json:"goarch,omitempty"`
	Entries   []BaselineEntry `json:"entries"`
}

// BaselineEntry is one gated benchmark's reference timing and, when
// AllocsPerOp is set, its reference allocation count.
type BaselineEntry struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// result is one benchmark's median ns/op and, when its input lines had
// -benchmem columns, its median allocs/op.
type result struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// samples collects one benchmark's per-run values.
type samples struct {
	ns, allocs []float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive the
// whole command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dyrs-benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline document")
	threshold := fs.Float64("threshold", 0.15, "fractional slowdown that fails the gate")
	write := fs.Bool("write", false, "write the baseline from the input instead of gating")
	inject := fs.Float64("inject", 1.0, "multiply head medians by this factor (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	head, err := readBenchmarks(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "dyrs-benchgate:", err)
		return 2
	}
	if len(head) == 0 {
		fmt.Fprintln(stderr, "dyrs-benchgate: no benchmark results in input")
		return 2
	}
	medians := medianByName(head)
	for name, r := range medians {
		r.ns *= *inject
		r.allocs *= *inject
		medians[name] = r
	}

	if *write {
		if err := writeBaseline(*baselinePath, medians); err != nil {
			fmt.Fprintln(stderr, "dyrs-benchgate:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s with %d benchmark(s)\n", *baselinePath, len(medians))
		return 0
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "dyrs-benchgate:", err)
		return 2
	}
	rep := gate(base, medians, *threshold)
	fmt.Fprint(stdout, rep.String())
	if len(rep.Failures) > 0 {
		fmt.Fprintf(stderr, "dyrs-benchgate: FAIL: %d benchmark(s) regressed past %.0f%% (regenerate the baseline with -write only for intentional changes)\n",
			len(rep.Failures), *threshold*100)
		return 1
	}
	return 0
}

// readBenchmarks parses benchmark output from the named files, or from
// stdin when none are given.
func readBenchmarks(paths []string) (map[string]*samples, error) {
	if len(paths) == 0 {
		return parseBench(os.Stdin)
	}
	all := map[string]*samples{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		m, err := parseBench(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for name, s := range m {
			if a := all[name]; a != nil {
				a.ns = append(a.ns, s.ns...)
				a.allocs = append(a.allocs, s.allocs...)
			} else {
				all[name] = s
			}
		}
	}
	return all, nil
}

// parseBench extracts per-benchmark ns/op samples, and allocs/op samples
// from lines with -benchmem columns, from Go benchmark text output.
// After the iteration count a line is a list of (value, unit) pairs, so
// custom metrics such as events/sec do not shift the columns. The
// trailing -GOMAXPROCS suffix is stripped so baselines survive runner
// core-count changes.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := out[name]
		if s == nil {
			s = &samples{}
			out[name] = s
		}
		s.ns = append(s.ns, ns)
		for i := 4; i+1 < len(f); i += 2 {
			if f[i+1] != "allocs/op" {
				continue
			}
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				s.allocs = append(s.allocs, v)
			}
		}
	}
	return out, sc.Err()
}

// medianByName reduces each benchmark's samples to their medians —
// robust against the occasional slow repetition that a mean would
// smear across the gate.
func medianByName(all map[string]*samples) map[string]result {
	out := make(map[string]result, len(all))
	for name, s := range all {
		r := result{ns: median(s.ns)}
		if len(s.allocs) > 0 {
			r.allocs, r.hasAllocs = median(s.allocs), true
		}
		out[name] = r
	}
	return out
}

// median returns the middle sample (mean of the middle two for even
// counts). The input is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// GateRow is one benchmark's comparison against its baseline entry.
type GateRow struct {
	Name     string
	BaseNs   float64
	HeadNs   float64
	Delta    float64 // (head-base)/base; NaN-free because base > 0 is enforced
	Failed   bool
	Missing  bool // in baseline but absent from input
	Unjudged bool // in input but absent from baseline

	// Allocation gate, for entries with allocs_per_op.
	GatesAllocs   bool
	BaseAllocs    float64
	HeadAllocs    float64
	AllocsMissing bool // the input has no allocs/op column for it
}

// GateReport is the full comparison outcome.
type GateReport struct {
	Rows     []GateRow
	Failures []string
}

// gate compares head medians against the baseline. Every baseline entry
// must be present and within threshold, in ns/op and, where the entry
// records it, in allocs/op; extra head benchmarks are reported but never
// fail.
func gate(base *Baseline, head map[string]result, threshold float64) *GateReport {
	rep := &GateReport{}
	for _, e := range base.Entries {
		row := GateRow{Name: e.Name, BaseNs: e.NsPerOp}
		h, ok := head[e.Name]
		switch {
		case !ok:
			row.Missing, row.Failed = true, true
		case e.NsPerOp <= 0:
			row.Failed = true // corrupt baseline entry: refuse to divide by it
		default:
			row.HeadNs = h.ns
			row.Delta = (h.ns - e.NsPerOp) / e.NsPerOp
			row.Failed = row.Delta > threshold
		}
		if ok && e.AllocsPerOp != nil {
			row.GatesAllocs, row.BaseAllocs = true, *e.AllocsPerOp
			if h.hasAllocs {
				row.HeadAllocs = h.allocs
				row.Failed = row.Failed || h.allocs > row.BaseAllocs*(1+threshold)
			} else {
				row.AllocsMissing, row.Failed = true, true
			}
		}
		if row.Failed {
			rep.Failures = append(rep.Failures, e.Name)
		}
		rep.Rows = append(rep.Rows, row)
	}
	var extra []string
	for name := range head {
		if !baselineHas(base, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		rep.Rows = append(rep.Rows, GateRow{Name: name, HeadNs: head[name].ns, Unjudged: true})
	}
	return rep
}

func baselineHas(base *Baseline, name string) bool {
	for _, e := range base.Entries {
		if e.Name == name {
			return true
		}
	}
	return false
}

// String renders the comparison as a fixed-width table.
func (r *GateReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %15s %15s %9s\n", "benchmark", "baseline", "head", "delta")
	for _, row := range r.Rows {
		switch {
		case row.Missing:
			fmt.Fprintf(&b, "%-40s %15s %15s %9s  FAIL (missing from input)\n",
				row.Name, fmtNs(row.BaseNs), "-", "-")
		case row.Unjudged:
			fmt.Fprintf(&b, "%-40s %15s %15s %9s  (not in baseline)\n",
				row.Name, "-", fmtNs(row.HeadNs), "-")
		default:
			status := ""
			if row.Failed {
				status = "  FAIL"
			}
			allocs := ""
			switch {
			case row.AllocsMissing:
				allocs = fmt.Sprintf("  allocs/op %.0f -> - (no -benchmem column)", row.BaseAllocs)
			case row.GatesAllocs:
				allocs = fmt.Sprintf("  allocs/op %.0f -> %.0f", row.BaseAllocs, row.HeadAllocs)
			}
			fmt.Fprintf(&b, "%-40s %15s %15s %+8.1f%%%s%s\n",
				row.Name, fmtNs(row.BaseNs), fmtNs(row.HeadNs), row.Delta*100, allocs, status)
		}
	}
	return b.String()
}

// fmtNs renders nanoseconds with a readable unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

// loadBaseline reads and validates the committed baseline.
func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != baselineSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, base.Schema, baselineSchema)
	}
	if len(base.Entries) == 0 {
		return nil, fmt.Errorf("%s: no baseline entries", path)
	}
	return &base, nil
}

// writeBaseline emits a fresh baseline document from head medians, in
// sorted name order so regeneration diffs cleanly. A benchmark gains
// allocs_per_op when its input had -benchmem columns.
func writeBaseline(path string, medians map[string]result) error {
	base := Baseline{
		Schema:    baselineSchema,
		Note:      "Reference medians for dyrs-benchgate; regenerate with `dyrs-benchgate -write` on the reference runner class after intentional performance changes.",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	names := make([]string, 0, len(medians))
	for name := range medians {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := medians[name]
		e := BaselineEntry{Name: name, NsPerOp: r.ns}
		if r.hasAllocs {
			e.AllocsPerOp = &r.allocs
		}
		base.Entries = append(base.Entries, e)
	}
	data, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
