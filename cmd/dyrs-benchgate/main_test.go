package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dyrs
cpu: Example CPU @ 2.10GHz
BenchmarkSimEngineEvents-8   	  200000	      5000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimEngineEvents-8   	  200000	      5200 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimEngineEvents-8   	  200000	      4900 ns/op	       0 B/op	       0 allocs/op
BenchmarkScale1k-8           	       1	9000000000 ns/op	2260176 events/sec	 7.6e+08 B/op	12000000 allocs/op
BenchmarkScale1k-8           	       1	9100000000 ns/op	2235000 events/sec	 7.6e+08 B/op	12000000 allocs/op
PASS
ok  	dyrs	30.1s
`

func TestParseBenchStripsCPUSuffixAndCollectsSamples(t *testing.T) {
	m, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m["BenchmarkSimEngineEvents"].ns); got != 3 {
		t.Errorf("engine samples = %d, want 3", got)
	}
	if got := len(m["BenchmarkScale1k"].ns); got != 2 {
		t.Errorf("scale1k samples = %d, want 2", got)
	}
	if _, ok := m["BenchmarkSimEngineEvents-8"]; ok {
		t.Error("GOMAXPROCS suffix not stripped")
	}
}

// TestParseBenchCollectsAllocs: allocs/op is found by its unit, also
// after a custom metric column, and lines without -benchmem columns add
// no allocation samples.
func TestParseBenchCollectsAllocs(t *testing.T) {
	in := sampleBench + "BenchmarkNoMem-8   	     100	      7000 ns/op\n"
	m, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := m["BenchmarkScale1k"].allocs; len(got) != 2 || got[0] != 12000000 {
		t.Errorf("scale1k allocs samples = %v, want two of 12000000", got)
	}
	if got := m["BenchmarkSimEngineEvents"].allocs; len(got) != 3 || got[0] != 0 {
		t.Errorf("engine allocs samples = %v, want three zeros", got)
	}
	if got := m["BenchmarkScale1k"].bytes; len(got) != 2 || got[0] != 7.6e8 {
		t.Errorf("scale1k bytes samples = %v, want two of 7.6e8", got)
	}
	r := medianByName(m)
	if r["BenchmarkNoMem"].mem || !r["BenchmarkSimEngineEvents"].mem {
		t.Errorf("mem: no-mem %v, engine %v", r["BenchmarkNoMem"].mem, r["BenchmarkSimEngineEvents"].mem)
	}
	if r["BenchmarkScale1k"].multi || !r["BenchmarkSimEngineEvents"].multi {
		t.Errorf("multi: scale1k %v, engine %v", r["BenchmarkScale1k"].multi, r["BenchmarkSimEngineEvents"].multi)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func ptr(v float64) *float64 { return &v }

func testBaseline() *Baseline {
	return &Baseline{
		Schema: baselineSchema,
		Entries: []BaselineEntry{
			{Name: "BenchmarkScale1k", NsPerOp: ptr(9e9)},
			{Name: "BenchmarkSimEngineEvents", NsPerOp: ptr(5000)},
		},
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	head := map[string]result{
		"BenchmarkScale1k":         {ns: 9.9e9}, // +10%
		"BenchmarkSimEngineEvents": {ns: 4800},  // faster
	}
	rep := gate(testBaseline(), head, 0.15)
	if len(rep.Failures) != 0 {
		t.Errorf("gate failed within threshold: %v", rep.Failures)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	head := map[string]result{
		"BenchmarkScale1k":         {ns: 2 * 9e9}, // injected 2x slowdown
		"BenchmarkSimEngineEvents": {ns: 5000},
	}
	rep := gate(testBaseline(), head, 0.15)
	if len(rep.Failures) != 1 || rep.Failures[0] != "BenchmarkScale1k" {
		t.Errorf("failures = %v, want exactly BenchmarkScale1k", rep.Failures)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	head := map[string]result{"BenchmarkScale1k": {ns: 9e9}}
	rep := gate(testBaseline(), head, 0.15)
	if len(rep.Failures) != 1 || rep.Failures[0] != "BenchmarkSimEngineEvents" {
		t.Errorf("failures = %v, want the deleted benchmark", rep.Failures)
	}
}

func TestGateReportsNewBenchmarkWithoutFailing(t *testing.T) {
	head := map[string]result{
		"BenchmarkScale1k":         {ns: 9e9},
		"BenchmarkSimEngineEvents": {ns: 5000},
		"BenchmarkBrandNew":        {ns: 123},
	}
	rep := gate(testBaseline(), head, 0.15)
	if len(rep.Failures) != 0 {
		t.Errorf("new benchmark failed the gate: %v", rep.Failures)
	}
	if !strings.Contains(rep.String(), "BenchmarkBrandNew") {
		t.Error("new benchmark not mentioned in the report")
	}
}

// TestGateAllocs: an entry with allocs_per_op fails when the head
// median exceeds it by more than the threshold, or when the input has
// no allocs/op column; within the threshold it passes, and entries
// without allocs_per_op are not judged on allocations.
func TestGateAllocs(t *testing.T) {
	base := testBaseline()
	base.Entries[0].AllocsPerOp = ptr(1000) // BenchmarkScale1k
	for _, tc := range []struct {
		name string
		head result
		fail bool
	}{
		{"within threshold", result{ns: 9e9, allocs: 1100, mem: true}, false},
		{"fewer allocs", result{ns: 9e9, allocs: 10, mem: true}, false},
		{"alloc regression", result{ns: 9e9, allocs: 1200, mem: true}, true},
		{"no -benchmem column", result{ns: 9e9}, true},
	} {
		head := map[string]result{
			"BenchmarkScale1k":         tc.head,
			"BenchmarkSimEngineEvents": {ns: 5000, allocs: 50, mem: true},
		}
		rep := gate(base, head, 0.15)
		if failed := len(rep.Failures) != 0; failed != tc.fail {
			t.Errorf("%s: failures = %v, want failing %v", tc.name, rep.Failures, tc.fail)
		}
		if !strings.Contains(rep.String(), "1000 ->") {
			t.Errorf("%s: report does not show the allocation gate:\n%s", tc.name, rep.String())
		}
	}
}

// TestEndToEndWriteGateInject drives the command as CI does: write a
// baseline from a head file, gate the same file (pass), then gate with
// an injected 2x slowdown (must fail) — proving the gate trips.
func TestEndToEndWriteGateInject(t *testing.T) {
	dir := t.TempDir()
	headPath := filepath.Join(dir, "head.txt")
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(headPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-write", "-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("-write exited %d: %s", code, errOut.String())
	}
	if code := run([]string{"-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("same-numbers gate exited %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", basePath, "-inject", "2.0", headPath}, &out, &errOut); code != 1 {
		t.Fatalf("2x-slowdown gate exited %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Error("failing gate report does not mark FAIL rows")
	}

	// -write split the input by iteration count: the one-iteration macro
	// run gates allocs/op and B/op only, the microbenchmark also ns/op.
	base, err := loadBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	macro, micro := base.Entries[0], base.Entries[1]
	if macro.Name != "BenchmarkScale1k" || macro.NsPerOp != nil ||
		macro.AllocsPerOp == nil || *macro.AllocsPerOp != 12000000 ||
		macro.BytesPerOp == nil || *macro.BytesPerOp != 7.6e8 {
		t.Errorf("macro entry = %+v, want allocs 12000000 and bytes 7.6e8 without ns", macro)
	}
	if micro.NsPerOp == nil || *micro.NsPerOp != 5000 || micro.AllocsPerOp == nil || micro.BytesPerOp == nil {
		t.Errorf("micro entry = %+v, want ns 5000 plus allocs and bytes", micro)
	}

	// With only the macro entry left, the injected run fails on its
	// allocation columns alone.
	writeBaselineDoc(t, basePath, &Baseline{Schema: baselineSchema, Entries: []BaselineEntry{macro}})
	out.Reset()
	if code := run([]string{"-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("same-numbers allocs-only gate exited %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"-baseline", basePath, "-inject", "2.0", headPath}, &out, &errOut); code != 1 {
		t.Fatalf("2x-allocs gate exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "12000000 -> 24000000") {
		t.Errorf("injected allocs not in the report:\n%s", out.String())
	}
}

func writeBaselineDoc(t *testing.T, path string, base *Baseline) {
	t.Helper()
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInjectScalesBytes: an entry gating B/op alone still trips the
// -inject self-test, and a B/op regression fails the gate even when
// allocs/op holds.
func TestInjectScalesBytes(t *testing.T) {
	dir := t.TempDir()
	headPath := filepath.Join(dir, "head.txt")
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(headPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	writeBaselineDoc(t, basePath, &Baseline{Schema: baselineSchema, Entries: []BaselineEntry{
		{Name: "BenchmarkScale1k", BytesPerOp: ptr(7.6e8)},
	}})
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("same-numbers bytes-only gate exited %d: %s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-baseline", basePath, "-inject", "2.0", headPath}, &out, &errOut); code != 1 {
		t.Fatalf("2x-bytes gate exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "760000000 -> 1520000000") {
		t.Errorf("injected bytes not in the report:\n%s", out.String())
	}

	base := &Baseline{Entries: []BaselineEntry{{Name: "BenchmarkScale1k", AllocsPerOp: ptr(1000), BytesPerOp: ptr(1e6)}}}
	head := map[string]result{"BenchmarkScale1k": {ns: 9e9, allocs: 1000, bytes: 1.2e6, mem: true}}
	if rep := gate(base, head, 0.15); len(rep.Failures) != 1 {
		t.Errorf("+20%% B/op at equal allocs/op passed the gate:\n%s", rep)
	}
}

// TestSpreadWidensNsLimit: an entry fails ns/op past max(threshold,
// spread), and an entry without ns_per_op is not judged on time.
func TestSpreadWidensNsLimit(t *testing.T) {
	for _, tc := range []struct {
		spread, head float64
		fail         bool
	}{
		{0, 1100, false},
		{0, 1200, true},
		{0.3, 1200, false},
		{0.3, 1290, false},
		{0.3, 1310, true},
	} {
		base := &Baseline{Entries: []BaselineEntry{{Name: "B", NsPerOp: ptr(1000), Spread: tc.spread}}}
		rep := gate(base, map[string]result{"B": {ns: tc.head}}, 0.15)
		if failed := len(rep.Failures) > 0; failed != tc.fail {
			t.Errorf("spread %g, head %g: failed %v, want %v", tc.spread, tc.head, failed, tc.fail)
		}
	}
	base := &Baseline{Entries: []BaselineEntry{{Name: "M", AllocsPerOp: ptr(10), BytesPerOp: ptr(100)}}}
	if rep := gate(base, map[string]result{"M": {ns: 1e12, allocs: 10, bytes: 100, mem: true}}, 0.15); len(rep.Failures) > 0 {
		t.Errorf("allocation-only entry judged on ns/op:\n%s", rep)
	}
}

// TestQuartiles pins the spread's quartile method to Python's
// statistics.quantiles(xs, n=4): [1.75, 3.5, 5.25] for 1..6.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{6, 5, 4, 3, 2, 1})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %g %g %g, want 1.75 3.5 5.25", q1, med, q3)
	}
	m := medianByName(map[string]*samples{"B": {ns: []float64{100, 110, 90, 105, 95, 100}}})
	if got := m["B"].spread; got != (106.25-93.75)/100 {
		t.Errorf("spread = %g, want %g", got, (106.25-93.75)/100)
	}
}

// TestRejectsValuesThatPassEverything: a NaN or non-positive -threshold
// or -inject makes every "head > limit" comparison false, and a negative
// baseline value makes one always true or always false; each is refused
// with exit 2 before any input is judged.
func TestRejectsValuesThatPassEverything(t *testing.T) {
	dir := t.TempDir()
	headPath := filepath.Join(dir, "head.txt")
	if err := os.WriteFile(headPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	goodPath := filepath.Join(dir, "good.json")
	writeBaselineDoc(t, goodPath, &Baseline{Schema: baselineSchema, Entries: []BaselineEntry{
		{Name: "BenchmarkScale1k", AllocsPerOp: ptr(1), BytesPerOp: ptr(1)},
	}})
	for _, tc := range []struct {
		name  string
		args  []string
		entry string // baseline entry JSON; empty uses goodPath
	}{
		{"threshold NaN", []string{"-threshold", "NaN"}, ""},
		{"threshold 0", []string{"-threshold", "0"}, ""},
		{"threshold negative", []string{"-threshold", "-0.1"}, ""},
		{"threshold Inf", []string{"-threshold", "+Inf"}, ""},
		{"inject 0", []string{"-inject", "0"}, ""},
		{"inject NaN", []string{"-inject", "NaN"}, ""},
		{"inject negative", []string{"-inject", "-2"}, ""},
		{"negative ns", nil, `{"name":"BenchmarkScale1k","ns_per_op":-1}`},
		{"zero ns", nil, `{"name":"BenchmarkScale1k","ns_per_op":0}`},
		{"negative spread", nil, `{"name":"BenchmarkScale1k","ns_per_op":1,"spread":-0.5}`},
		{"negative allocs", nil, `{"name":"BenchmarkScale1k","allocs_per_op":-1}`},
		{"negative bytes", nil, `{"name":"BenchmarkScale1k","bytes_per_op":-1}`},
		{"gates nothing", nil, `{"name":"BenchmarkScale1k"}`},
	} {
		basePath := goodPath
		if tc.entry != "" {
			basePath = filepath.Join(dir, "bad.json")
			doc := `{"schema":"` + baselineSchema + `","entries":[` + tc.entry + `]}`
			if err := os.WriteFile(basePath, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errOut bytes.Buffer
		args := append(append([]string{"-baseline", basePath}, tc.args...), headPath)
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s%s", tc.name, code, out.String(), errOut.String())
		}
	}
}

func TestLoadBaselineRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "base.json")
	if err := os.WriteFile(p, []byte(`{"schema":"other/v9","entries":[{"name":"x","ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(p); err == nil {
		t.Error("wrong schema accepted")
	}
}

// TestWriteKeepsUnmeasuredEntries: -write over an existing baseline
// re-measures the benchmarks its input names, adds new ones and keeps
// every other entry byte for byte; a baseline that does not load is an
// error and stays as it was.
func TestWriteKeepsUnmeasuredEntries(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	headPath := filepath.Join(dir, "head.txt")
	kept := BaselineEntry{Name: "BenchmarkKept", NsPerOp: ptr(123), Spread: 0.07, AllocsPerOp: ptr(4), BytesPerOp: ptr(96)}
	writeBaselineDoc(t, basePath, &Baseline{Schema: baselineSchema, Entries: []BaselineEntry{
		kept,
		{Name: "BenchmarkScale1k", AllocsPerOp: ptr(1), BytesPerOp: ptr(1)},
	}})
	if err := os.WriteFile(headPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-write", "-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("-write exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 benchmark(s) measured, 1 kept") {
		t.Errorf("-write reported %q", out.String())
	}
	base, err := loadBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]BaselineEntry{}
	var names []string
	for _, e := range base.Entries {
		got[e.Name] = e
		names = append(names, e.Name)
	}
	if want := "BenchmarkKept BenchmarkScale1k BenchmarkSimEngineEvents"; strings.Join(names, " ") != want {
		t.Fatalf("entries %v, want %s", names, want)
	}
	if e := got["BenchmarkKept"]; *e.NsPerOp != 123 || e.Spread != 0.07 || *e.AllocsPerOp != 4 || *e.BytesPerOp != 96 {
		t.Errorf("unmeasured entry changed: %+v", e)
	}
	if e := got["BenchmarkScale1k"]; *e.AllocsPerOp != 12000000 || *e.BytesPerOp != 7.6e8 {
		t.Errorf("measured entry not replaced: %+v", e)
	}
	if e := got["BenchmarkSimEngineEvents"]; e.NsPerOp == nil || *e.NsPerOp != 5000 {
		t.Errorf("new entry not added: %+v", e)
	}

	bad := []byte(`{"schema": "dyrs-benchgate/v1", "entries": []}`)
	if err := os.WriteFile(basePath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-write", "-baseline", basePath, headPath}, &out, &errOut); code != 2 {
		t.Errorf("-write over a baseline of another schema exited %d, want 2", code)
	}
	if data, _ := os.ReadFile(basePath); !bytes.Equal(data, bad) {
		t.Errorf("-write overwrote a baseline it could not load:\n%s", data)
	}
}
