package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sortArgs returns a fast single-job scenario (2 blocks, short lead).
func sortArgs(extra ...string) []string {
	args := []string{"-policy", "DYRS", "-size", "0.5", "-lead", "2s", "-seed", "1"}
	return append(args, extra...)
}

func runOK(t *testing.T, args []string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v) failed: %v\nstderr: %s", args, err, errOut.String())
	}
	return out.String()
}

func TestRunSortSmoke(t *testing.T) {
	out := runOK(t, sortArgs())
	for _, want := range []string{"policy      : DYRS", "end-to-end", "migration   :"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-policy", "bogus"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("want unknown-policy error, got %v", err)
	}
}

// TestRunRejectsBadFlags covers flag values that used to be accepted
// silently (an unknown workload ran sort, non-positive workers became
// 7, an -interfere index past the cluster ran without interference, a
// negative -alternate meant persistent), panicked deep in workload
// generation (-swim-jobs 0) or failed with a misleading DFS error (a
// NaN or overflowing -size). A -size of more blocks than the dfs block
// table holds (1e9 GB) ran out of memory and is now the dfs error.
// Options.Validate rejects the rest before the environment is built
// (-trace-sample -4). The retired -shards and -metrics-addr flags
// are unknown flags. A flag the chosen workload never reads (hive's
// -workers or -telemetry, swim's -interfere) used to be ignored; each
// one set is now named in the error, and so is a -trace-format or
// -trace-sample given where no trace file is written.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{sortArgs("-workload", "bogus"), "unknown workload"},
		{sortArgs("-workload", "swim", "-swim-jobs", "0"), "-swim-jobs must be positive"},
		{sortArgs("-workload", "swim", "-swim-jobs", "-3"), "-swim-jobs must be positive"},
		{sortArgs("-workers", "0"), "-workers must be positive"},
		{sortArgs("-workers", "-1"), "-workers must be positive"},
		{sortArgs("-shards", "2"), "flag provided but not defined: -shards"},
		{sortArgs("-trace-sample", "-4"), "SampleEvery must not be negative"},
		{sortArgs("-interfere", "9", "-workers", "7"), "-interfere must be -1 (none) or a node index below -workers 7"},
		{sortArgs("-interfere", "7"), "-interfere must be -1"},
		{sortArgs("-interfere", "-2"), "-interfere must be -1"},
		{sortArgs("-alternate", "-10s"), "-alternate must not be negative"},
		{sortArgs("-size", "NaN"), "-size must be at least one byte"},
		{sortArgs("-size", "1e30"), "-size must be at least one byte"},
		{sortArgs("-size", "+Inf"), "-size must be at least one byte"},
		{sortArgs("-size", "0"), "-size must be at least one byte"},
		{sortArgs("-size", "-2"), "-size must be at least one byte"},
		{sortArgs("-size", "1e9"), "dfs: block table full: file sort-input needs 4000000000 blocks"},
		{[]string{"-workload", "hive", "-query", "q21", "-workers", "3", "-telemetry"}, "-telemetry, -workers not supported with the hive workload"},
		{[]string{"-workload", "hive", "-size", "5", "-lead", "1s", "-interfere", "2", "-alternate", "10s", "-swim-jobs", "5"},
			"-alternate, -interfere, -lead, -size, -swim-jobs not supported with the hive workload"},
		{[]string{"-workload", "swim", "-interfere", "2", "-size", "99"}, "-interfere, -size not supported with the swim workload"},
		{[]string{"-workload", "swim", "-lead", "1s", "-alternate", "10s", "-query", "q21"}, "-alternate, -lead, -query not supported with the swim workload"},
		{sortArgs("-swim-jobs", "5"), "-swim-jobs not supported with the sort workload"},
		{sortArgs("-query", "q21"), "-query not supported with the sort workload"},
		{[]string{"-workload", "hive", "-query", "q52", "-trace-sample", "8", "-trace-format", "perfetto"},
			"-trace-format, -trace-sample not supported with the hive workload"},
		{[]string{"-size", "1", "-trace-sample", "8", "-trace-format", "perfetto"}, "-trace-format, -trace-sample not supported without -trace"},
		{[]string{"-workload", "swim", "-trace-format", "json"}, "-trace-format not supported without -trace"},
		{sortArgs("-trace-sample", "4", "-telemetry"), "-trace-sample not supported without -trace"},
		{sortArgs("-trace-format", "openmetrics"), "-trace-format not supported without -trace"},
		{sortArgs("-metrics-addr", "127.0.0.1:0"), "flag provided but not defined: -metrics-addr"},
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestRunRejectsUnknownTraceFormat(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(sortArgs("-trace", "x.json", "-trace-format", "protobuf"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Fatalf("want unknown-trace-format error, got %v", err)
	}
}

func TestRunRejectsTraceWithHive(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-workload", "hive", "-trace", "x.json"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("want unsupported-combination error, got %v", err)
	}
}

// TestTraceDeterminism is the PR's headline acceptance check: the same
// seed must produce a byte-identical trace file across runs.
func TestTraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		out := runOK(t, sortArgs("-trace", p))
		if !strings.Contains(out, "trace summary") {
			t.Errorf("output missing trace summary:\n%s", out)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("trace file is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("trace files differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}

	var doc struct {
		Schema   string           `json:"schema"`
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Cat string `json:"cat"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.Schema != "dyrs-trace/v2" {
		t.Errorf("schema = %q, want dyrs-trace/v2", doc.Schema)
	}
	if doc.Counters["migration.completed"] == 0 {
		t.Errorf("no completed migrations recorded: %v", doc.Counters)
	}
	var migs int
	for _, s := range doc.Spans {
		if s.Cat == "migration" {
			migs++
		}
	}
	if migs == 0 {
		t.Error("no migration spans in trace")
	}
}

// TestTracePerfetto round-trips the Chrome trace-event output and checks
// it has the structure Perfetto needs: metadata, complete spans with
// pid/tid/ts, counters.
func TestTracePerfetto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runOK(t, sortArgs("-trace", path, "-trace-format", "perfetto"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var meta, complete, counters int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			pids[ev.PID] = true
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("span %q has negative ts/dur: %+v", ev.Name, ev)
			}
		case "C":
			counters++
		}
	}
	if meta == 0 || complete == 0 || counters == 0 {
		t.Fatalf("want metadata, span and counter events; got M=%d X=%d C=%d", meta, complete, counters)
	}
	if len(pids) < 2 {
		t.Errorf("spans confined to %d process(es); want master plus workers", len(pids))
	}
}

func TestTelemetryCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.csv")
	runOK(t, sortArgs("-telemetry-csv", path))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "series,seconds,value" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CSV lines; expected samples for every node/series", len(lines))
	}
	for _, prefix := range []string{"disk:", "nic:", "mem:"} {
		found := false
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q series in CSV", prefix)
		}
	}
}

// TestTraceSampling checks the deterministic sampler end to end: the
// sampled file is stable across runs, strictly smaller
// than the full trace, and keeps counters exact.
func TestTraceSampling(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	runOK(t, sortArgs("-trace", full))

	paths := []string{
		filepath.Join(dir, "s1.json"),
		filepath.Join(dir, "s1b.json"),
	}
	out := runOK(t, sortArgs("-trace", paths[0], "-trace-sample", "4"))
	runOK(t, sortArgs("-trace", paths[1], "-trace-sample", "4"))
	if strings.Contains(out, "achieved lead-time") || !strings.Contains(out, "spans are sampled 1-in-4") {
		t.Errorf("sampled run's summary should omit lead-time and margin and say why:\n%s", out)
	}

	read := func(p string) []byte {
		t.Helper()
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := read(paths[0])
	if !bytes.Equal(a, read(paths[1])) {
		t.Error("sampled trace differs across identical runs")
	}
	if fb := read(full); len(a) >= len(fb) {
		t.Errorf("sampled trace (%d bytes) not smaller than full (%d bytes)", len(a), len(fb))
	}

	var sampled, whole struct {
		SampleN    int              `json:"sample_n"`
		SampledOut uint64           `json:"sampled_out"`
		Counters   map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(a, &sampled); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(read(full), &whole); err != nil {
		t.Fatal(err)
	}
	if sampled.SampleN != 4 {
		t.Errorf("sample_n = %d, want 4", sampled.SampleN)
	}
	if sampled.Counters["migration.completed"] != whole.Counters["migration.completed"] {
		t.Errorf("sampling changed an exact counter: %d vs %d",
			sampled.Counters["migration.completed"], whole.Counters["migration.completed"])
	}
	if sampled.SampledOut == 0 {
		t.Error("sampled run dropped nothing")
	}
}

// TestManifest checks the run manifest records the run's identity and
// the schema of the trace format the run actually wrote.
func TestManifest(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ format, schema string }{
		{"json", "dyrs-trace/v2"},
		{"perfetto", "chrome-trace-event/json"},
		{"openmetrics", "openmetrics-text/1.0.0"},
	} {
		p := filepath.Join(dir, tc.format+"-man.json")
		runOK(t, sortArgs("-manifest", p, "-trace", filepath.Join(dir, tc.format), "-trace-format", tc.format))
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Schema  string            `json:"schema"`
			Tool    string            `json:"tool"`
			Seed    int64             `json:"seed"`
			Flags   map[string]string `json:"flags"`
			Virtual int64             `json:"virtual_ns"`
			PeakRSS int64             `json:"peak_rss_bytes"`
			Schemas map[string]string `json:"schemas"`
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("%s: manifest is not valid JSON: %v", tc.format, err)
		}
		if m.Schema != "dyrs-manifest/v1" || m.Tool != "dyrs-sim" || m.Seed != 1 {
			t.Errorf("%s: manifest identity wrong: %+v", tc.format, m)
		}
		if m.Flags["policy"] != "DYRS" || m.Flags["size"] != "0.5" || m.Flags["trace-format"] != tc.format {
			t.Errorf("%s: manifest flags wrong: %v", tc.format, m.Flags)
		}
		if m.Virtual <= 0 || m.PeakRSS <= 0 {
			t.Errorf("%s: manifest missing measurements: virtual=%d rss=%d", tc.format, m.Virtual, m.PeakRSS)
		}
		if m.Schemas["trace"] != tc.schema {
			t.Errorf("%s: manifest schemas = %v, want trace %q", tc.format, m.Schemas, tc.schema)
		}
	}
}

// TestTraceOpenMetrics checks the OpenMetrics trace file: the same seed
// writes the same bytes, the exposition ends in "# EOF", and its
// migration gauges are the counts the run prints.
func TestTraceOpenMetrics(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	var out string
	for i := range files {
		p := filepath.Join(dir, fmt.Sprintf("run%d.prom", i))
		out = runOK(t, sortArgs("-trace", p, "-trace-format", "openmetrics"))
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("OpenMetrics files differ across identical runs")
	}
	text := string(files[0])
	if !strings.HasSuffix(text, "\n# EOF\n") {
		t.Errorf("exposition does not end in # EOF:\n%s", text)
	}
	if !strings.Contains(out, "(openmetrics)") {
		t.Errorf("trace line does not name the format:\n%s", out)
	}
	var requested, migrated int64
	_, line, _ := strings.Cut(out, "migration   :")
	if _, err := fmt.Sscanf(line, " requested=%d migrated=%d", &requested, &migrated); err != nil {
		t.Fatalf("no migration line in output: %v\n%s", err, out)
	}
	if migrated == 0 {
		t.Fatal("run migrated nothing")
	}
	for metric, want := range map[string]int64{
		"dyrs_migration_requested": requested,
		"dyrs_migration_completed": migrated,
	} {
		if line := fmt.Sprintf("\n%s %d\n", metric, want); !strings.Contains(text, line) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(line), text)
		}
	}
}
