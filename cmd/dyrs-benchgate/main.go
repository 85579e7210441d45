// Command dyrs-benchgate enforces the repository's committed benchmark
// baseline. It parses standard Go benchmark output (`go test -bench`),
// takes each benchmark's median across -count repetitions, and compares
// it against BENCH_BASELINE.json, failing with a non-zero exit when any
// gated quantity regressed past its limit.
//
// Usage:
//
//	go test -run '^$' -bench 'SimEngineEvents' -benchmem -count 6 . > micro.txt
//	go test -run '^$' -bench 'Scale100$' -benchmem -benchtime 1x -count 5 . > macro.txt
//	dyrs-benchgate micro.txt macro.txt          # gate vs BENCH_BASELINE.json
//	dyrs-benchgate -write micro.txt macro.txt   # update the baseline's entries
//	dyrs-benchgate -inject 2.0 micro.txt macro.txt  # self-test: must fail
//
// Which quantities an entry gates is read from the input that -write
// recorded it from:
//
//   - ns/op, for a benchmark whose input lines ran more than one
//     iteration (a microbenchmark). -write also records the entry's
//     spread, (q3−q1)/median of its ns/op samples, and the gate fails
//     ns/op only past max(-threshold, spread): a benchmark that is noisy
//     on the reference runner gets the room its own samples showed.
//   - allocs/op and B/op, for a benchmark whose input lines have
//     -benchmem columns. These fail past -threshold, or when the input
//     lacks the columns.
//
// A one-iteration benchmark (`-benchtime 1x`, a macro preset that runs
// a whole simulation per op) gets no ns/op entry: its wall time moves
// with host contention by tens of percent, while its allocation counts
// repeat to within a few objects. Every entry gates at least one
// quantity.
//
// Benchmarks present in the baseline but missing from the input fail
// the gate (so a gated benchmark cannot be silently deleted); new
// benchmarks absent from the baseline are reported but do not fail.
//
// -write replaces the entries of the benchmarks its input names, adds
// the new ones and keeps every other entry as it was, so a change that
// moved a few benchmarks re-measures only those. Removing an entry is
// an edit of the file. A baseline that exists but does not load (bad
// JSON, another schema) is an error rather than overwritten. The
// baseline records the Go version and platform of its last write;
// maintainers re-measure every entry when the reference hardware moves.
//
// -inject multiplies every head median, ns/op, allocs/op and B/op, by
// the given factor before comparing. CI uses it to prove the gate
// actually trips: a run with -inject 2.0 must exit non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineSchema versions BENCH_BASELINE.json so the gate rejects
// documents written by an incompatible tool. v2 made ns_per_op optional
// and added spread and bytes_per_op.
const baselineSchema = "dyrs-benchgate/v2"

// Baseline is the committed reference document.
type Baseline struct {
	Schema    string          `json:"schema"`
	Note      string          `json:"note,omitempty"`
	GoVersion string          `json:"go_version,omitempty"`
	GOOS      string          `json:"goos,omitempty"`
	GOARCH    string          `json:"goarch,omitempty"`
	Entries   []BaselineEntry `json:"entries"`
}

// BaselineEntry is one gated benchmark. Each non-nil quantity is gated;
// Spread widens the ns/op limit.
type BaselineEntry struct {
	Name        string   `json:"name"`
	NsPerOp     *float64 `json:"ns_per_op,omitempty"`
	Spread      float64  `json:"spread,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

// samples collects one benchmark's per-run values.
type samples struct {
	ns, allocs, bytes []float64
	multi             bool // some input line ran more than one iteration
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.allocs = append(s.allocs, o.allocs...)
	s.bytes = append(s.bytes, o.bytes...)
	s.multi = s.multi || o.multi
}

// result is one benchmark's medians. mem is set when its input lines had
// -benchmem columns, multi when they ran more than one iteration.
type result struct {
	ns, spread, allocs, bytes float64
	mem, multi                bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive the
// whole command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dyrs-benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline document")
	threshold := fs.Float64("threshold", 0.15, "fractional regression that fails the gate")
	write := fs.Bool("write", false, "write the baseline from the input instead of gating")
	inject := fs.Float64("inject", 1.0, "multiply head medians by this factor (gate self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Every comparison is "head > limit"; a NaN or non-positive factor
	// would make each one false and pass any input.
	for _, f := range []struct {
		name string
		v    float64
	}{{"threshold", *threshold}, {"inject", *inject}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			fmt.Fprintf(stderr, "dyrs-benchgate: -%s %g: want a finite positive number\n", f.name, f.v)
			return 2
		}
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
		r.bytes *= *inject
		medians[name] = r
	}

	if *write {
		kept, err := writeBaseline(*baselinePath, medians)
		if err != nil {
			fmt.Fprintln(stderr, "dyrs-benchgate:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s: %d benchmark(s) measured, %d kept\n", *baselinePath, len(medians), kept)
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
		fmt.Fprintf(stderr, "dyrs-benchgate: FAIL: %d benchmark(s) regressed (regenerate the baseline with -write only for intentional changes)\n",
			len(rep.Failures))
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
				a.merge(s)
			} else {
				all[name] = s
			}
		}
	}
	return all, nil
}

// parseBench extracts per-benchmark iteration counts, ns/op samples and,
// from lines with -benchmem columns, B/op and allocs/op samples from Go
// benchmark text output. After the iteration count a line is a list of
// (value, unit) pairs, so custom metrics such as events/sec do not shift
// the columns. The trailing -GOMAXPROCS suffix is stripped so baselines
// survive runner core-count changes.
func parseBench(r io.Reader) (map[string]*samples, error) {
	out := map[string]*samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
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
		s.multi = s.multi || iters > 1
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			}
		}
	}
	return out, sc.Err()
}

// medianByName reduces each benchmark's samples to their medians —
// robust against the occasional slow repetition that a mean would
// smear across the gate — and its ns/op spread.
func medianByName(all map[string]*samples) map[string]result {
	out := make(map[string]result, len(all))
	for name, s := range all {
		q1, med, q3 := quartiles(s.ns)
		r := result{ns: med, multi: s.multi}
		if med > 0 {
			r.spread = (q3 - q1) / med
		}
		if len(s.allocs) > 0 && len(s.bytes) > 0 {
			r.allocs, r.bytes, r.mem = median(s.allocs), median(s.bytes), true
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

// quartiles returns the first quartile, median and third quartile of xs
// (sorted in place) by Python's statistics.quantiles(xs, n=4) default
// "exclusive" method, the one benchmark/ reports its spreads with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	med = median(xs)
	n := len(xs)
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// GateRow is one benchmark's comparison against its baseline entry. A
// benchmark absent from the baseline has only its Name set there.
type GateRow struct {
	BaselineEntry
	Head       result
	Delta      float64 // (head-base)/base ns/op, when gated
	Limit      float64 // max(threshold, spread), when ns/op is gated
	Failed     bool
	Missing    bool // in baseline but absent from input
	Unjudged   bool // in input but absent from baseline
	MemMissing bool // allocs or bytes gated, but the input has no -benchmem columns
}

// GateReport is the full comparison outcome.
type GateReport struct {
	Rows     []GateRow
	Failures []string
}

// gate compares head medians against the baseline. Every baseline entry
// must be present and within its limits on every quantity it records;
// extra head benchmarks are reported but never fail.
func gate(base *Baseline, head map[string]result, threshold float64) *GateReport {
	rep := &GateReport{}
	over := func(head float64, base *float64) bool { return base != nil && head > *base*(1+threshold) }
	for _, e := range base.Entries {
		h, ok := head[e.Name]
		row := GateRow{BaselineEntry: e, Head: h, Missing: !ok, Failed: !ok}
		if ok && (e.AllocsPerOp != nil || e.BytesPerOp != nil) {
			row.MemMissing = !h.mem
			row.Failed = !h.mem || over(h.allocs, e.AllocsPerOp) || over(h.bytes, e.BytesPerOp)
		}
		if ok && e.NsPerOp != nil {
			row.Limit = math.Max(threshold, e.Spread)
			row.Delta = (h.ns - *e.NsPerOp) / *e.NsPerOp
			row.Failed = row.Failed || row.Delta > row.Limit
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
		rep.Rows = append(rep.Rows, GateRow{BaselineEntry: BaselineEntry{Name: name}, Head: head[name], Unjudged: true})
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

// String renders the comparison as a fixed-width table. A quantity the
// entry does not gate shows "-" as its baseline.
func (r *GateReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %11s %11s %8s %6s  %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "limit", "allocs/op, B/op")
	for _, row := range r.Rows {
		if row.Missing {
			fmt.Fprintf(&b, "%-36s %11s %11s %8s %6s  FAIL (missing from input)\n",
				row.Name, fmtNs(row.NsPerOp), "-", "-", "-")
			continue
		}
		delta, limit := "-", "-"
		if row.NsPerOp != nil {
			delta = fmt.Sprintf("%+.1f%%", row.Delta*100)
			limit = fmt.Sprintf("%.0f%%", row.Limit*100)
		}
		headAllocs, headBytes := "-", "-"
		if row.Head.mem {
			headAllocs, headBytes = fmtCount(&row.Head.allocs), fmtCount(&row.Head.bytes)
		}
		mem := fmt.Sprintf("%s -> %s, %s -> %s", fmtCount(row.AllocsPerOp), headAllocs, fmtCount(row.BytesPerOp), headBytes)
		if row.MemMissing {
			mem += " (no -benchmem columns)"
		}
		status := ""
		switch {
		case row.Unjudged:
			status = "  (not in baseline)"
		case row.Failed:
			status = "  FAIL"
		}
		fmt.Fprintf(&b, "%-36s %11s %11s %8s %6s  %s%s\n",
			row.Name, fmtNs(row.NsPerOp), fmtNs(&row.Head.ns), delta, limit, mem, status)
	}
	return b.String()
}

// fmtNs renders nanoseconds with a readable unit, or "-" for none.
func fmtNs(p *float64) string {
	if p == nil {
		return "-"
	}
	switch ns := *p; {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// fmtCount renders a baseline count, or "-" when the entry has none.
func fmtCount(p *float64) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f", *p)
}

// loadBaseline reads and validates the committed baseline: every entry
// gates at least one quantity, every value is a non-negative number and
// ns_per_op, which the gate divides by, is positive.
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
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	for _, e := range base.Entries {
		switch {
		case e.NsPerOp == nil && e.AllocsPerOp == nil && e.BytesPerOp == nil:
			return nil, fmt.Errorf("%s: %s gates nothing", path, e.Name)
		case e.NsPerOp != nil && (bad(*e.NsPerOp) || *e.NsPerOp == 0),
			bad(e.Spread),
			e.AllocsPerOp != nil && bad(*e.AllocsPerOp),
			e.BytesPerOp != nil && bad(*e.BytesPerOp):
			return nil, fmt.Errorf("%s: %s has a negative, zero-ns or non-finite value", path, e.Name)
		}
	}
	return &base, nil
}

// writeBaseline records head medians in the baseline at path, in
// sorted name order so regeneration diffs cleanly: ns/op and spread for
// benchmarks that ran more than one iteration, allocs/op and B/op for
// those with -benchmem columns. Entries of benchmarks absent from
// medians are kept as they were; it reports how many. A missing file
// starts an empty baseline.
func writeBaseline(path string, medians map[string]result) (kept int, err error) {
	entries := map[string]BaselineEntry{}
	old, err := loadBaseline(path)
	switch {
	case err == nil:
		for _, e := range old.Entries {
			entries[e.Name] = e
		}
	case !errors.Is(err, os.ErrNotExist):
		return 0, err
	}
	for name, r := range medians {
		e := BaselineEntry{Name: name}
		if r.multi {
			e.NsPerOp, e.Spread = &r.ns, math.Round(r.spread*1000)/1000
		}
		if r.mem {
			e.AllocsPerOp, e.BytesPerOp = &r.allocs, &r.bytes
		}
		if e.NsPerOp == nil && e.AllocsPerOp == nil {
			return 0, fmt.Errorf("%s ran one iteration without -benchmem columns: nothing to gate", name)
		}
		entries[name] = e
	}
	kept = len(entries) - len(medians)
	base := Baseline{
		Schema:    baselineSchema,
		Note:      "Reference medians for dyrs-benchgate; after intentional performance changes, `dyrs-benchgate -write` on the reference runner class re-measures the entries its input names and keeps the rest.",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base.Entries = append(base.Entries, entries[name])
	}
	data, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		return 0, err
	}
	return kept, os.WriteFile(path, append(data, '\n'), 0o644)
}
