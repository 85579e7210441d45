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
	r := medianByName(m)
	if r["BenchmarkNoMem"].hasAllocs || !r["BenchmarkSimEngineEvents"].hasAllocs {
		t.Errorf("hasAllocs: no-mem %v, engine %v", r["BenchmarkNoMem"].hasAllocs, r["BenchmarkSimEngineEvents"].hasAllocs)
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

func testBaseline() *Baseline {
	return &Baseline{
		Schema: baselineSchema,
		Entries: []BaselineEntry{
			{Name: "BenchmarkScale1k", NsPerOp: 9e9},
			{Name: "BenchmarkSimEngineEvents", NsPerOp: 5000},
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
	allocs := 1000.0
	base := testBaseline()
	base.Entries[0].AllocsPerOp = &allocs // BenchmarkScale1k
	for _, tc := range []struct {
		name string
		head result
		fail bool
	}{
		{"within threshold", result{ns: 9e9, allocs: 1100, hasAllocs: true}, false},
		{"fewer allocs", result{ns: 9e9, allocs: 10, hasAllocs: true}, false},
		{"alloc regression", result{ns: 9e9, allocs: 1200, hasAllocs: true}, true},
		{"no -benchmem column", result{ns: 9e9}, true},
	} {
		head := map[string]result{
			"BenchmarkScale1k":         tc.head,
			"BenchmarkSimEngineEvents": {ns: 5000, allocs: 50, hasAllocs: true},
		}
		rep := gate(base, head, 0.15)
		if failed := len(rep.Failures) != 0; failed != tc.fail {
			t.Errorf("%s: failures = %v, want failing %v", tc.name, rep.Failures, tc.fail)
		}
		if !strings.Contains(rep.String(), "allocs/op 1000 ->") {
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

	// -write recorded the -benchmem medians; -inject scales them too, so
	// with ns/op given ample room the injected run fails on allocs alone.
	base, err := loadBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range base.Entries {
		if e.AllocsPerOp == nil {
			t.Fatalf("%s: -write recorded no allocs_per_op", e.Name)
		}
		base.Entries[i].NsPerOp = 10 * e.NsPerOp
	}
	if got := *base.Entries[0].AllocsPerOp; got != 12000000 {
		t.Errorf("%s allocs_per_op = %g, want 12000000", base.Entries[0].Name, got)
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", basePath, headPath}, &out, &errOut); code != 0 {
		t.Fatalf("same-numbers gate with allocs exited %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"-baseline", basePath, "-inject", "2.0", headPath}, &out, &errOut); code != 1 {
		t.Fatalf("2x-allocs gate exited %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op 12000000 -> 24000000") {
		t.Errorf("injected allocs not in the report:\n%s", out.String())
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
