package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryShape(t *testing.T) {
	t.Parallel()
	reg := Registry()
	if len(reg) != 14 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Summary == "" || e.Run == nil || e.Merge == nil {
			t.Errorf("experiment %q incomplete: %+v", e.Name, e)
		}
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if seen[n] {
				t.Errorf("name %q claimed twice", n)
			}
			seen[n] = true
			if n != strings.ToLower(n) {
				t.Errorf("name %q not lower-case", n)
			}
		}
	}
	// Every figure/table of the paper plus extensions is reachable.
	for _, want := range []string{
		"fig1", "fig2", "fig3", "fig4", "table1", "fig5", "fig6", "fig7",
		"fig8", "fig9", "table2", "fig10", "fig11",
		"trace", "hive", "swim", "motivation", "order", "hotcold", "iterative", "scale",
		"scaleshard", "serving",
	} {
		if !seen[want] {
			t.Errorf("no experiment covers %q", want)
		}
	}
}

func TestSelectAll(t *testing.T) {
	t.Parallel()
	for _, empty := range []string{"", "  ", " , "} {
		picked, sel, err := Select(empty)
		if err != nil {
			t.Fatalf("Select(%q): %v", empty, err)
		}
		if len(picked) != len(Registry()) {
			t.Errorf("Select(%q) picked %d experiments", empty, len(picked))
		}
		if len(sel) != 0 || !sel.Has("anything") {
			t.Errorf("Select(%q) selection not universal", empty)
		}
	}
}

func TestSelectSubset(t *testing.T) {
	t.Parallel()
	picked, sel, err := Select(" Fig4 , fig9,hotcold ")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range picked {
		names = append(names, e.Name)
	}
	// Registry order, not request order.
	if got := strings.Join(names, ","); got != "hive,table2,hotcold" {
		t.Errorf("picked %s", got)
	}
	if !sel.Has("fig4") || !sel.Has("fig9") || sel.Has("fig10") {
		t.Errorf("selection wrong: %v", sel)
	}
	if sel.wantsAll("hive") {
		t.Error("fig4 alone must not select all hive sections")
	}
}

func TestSelectUnknownNames(t *testing.T) {
	t.Parallel()
	_, _, err := Select("fig4,fig12,bogus")
	if err == nil {
		t.Fatal("unknown names accepted")
	}
	for _, want := range []string{"fig12", "bogus", "valid names", "fig11", "iterative"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestValidNamesCoverAliases(t *testing.T) {
	t.Parallel()
	names := map[string]bool{}
	for _, n := range ValidNames() {
		names[n] = true
	}
	for _, e := range Registry() {
		if !names[e.Name] {
			t.Errorf("ValidNames missing %q", e.Name)
		}
		for _, a := range e.Aliases {
			if !names[a] {
				t.Errorf("ValidNames missing alias %q", a)
			}
		}
	}
}

func TestRenderSelectsSections(t *testing.T) {
	t.Parallel()
	var trace Experiment
	for _, e := range Registry() {
		if e.Name == "trace" {
			trace = e
		}
	}
	r := RunTrace(3)
	if got := trace.Render(r, nil); len(got) != 3 {
		t.Fatalf("full trace render has %d sections", len(got))
	}
	_, sel, err := Select("fig2")
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Render(r, sel)
	if len(got) != 1 || !strings.Contains(got[0], "Fig 2") {
		t.Fatalf("fig2 render = %d sections: %.40q", len(got), got)
	}
	_, sel, err = Select("trace")
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.Render(r, sel); len(got) != 3 {
		t.Fatalf("canonical-name render has %d sections", len(got))
	}
}

// serialSeed7 is the serial seed-7 evaluation, run once and shared by
// the tests that inspect it.
var serialSeed7 struct {
	once sync.Once
	rep  *FullReport
	err  error
}

func serialReport7(t *testing.T) *FullReport {
	t.Helper()
	serialSeed7.once.Do(func() {
		serialSeed7.rep, serialSeed7.err = RunAllParallel(7, 1, nil)
	})
	if serialSeed7.err != nil {
		t.Fatal(serialSeed7.err)
	}
	return serialSeed7.rep
}

// TestRunAllParallelMatchesSerial is the in-process form of the CI
// determinism gate: the merged JSON must be byte-identical no matter
// how many workers ran the experiments.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	serial := serialReport7(t)
	parallel, err := RunAllParallel(7, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("parallel report differs from serial report")
	}
}

// TestRunAllJSONRoundTrip checks that the full report round-trips
// through JSON with every experiment's rows.
func TestRunAllJSONRoundTrip(t *testing.T) {
	t.Parallel()
	rep := serialReport7(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back FullReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 7 || len(back.Hive) != 10 || len(back.TableII) != 5 ||
		len(back.Fig11) != 16 || len(back.Order) != 3 || len(back.Iterative) != 2 {
		t.Errorf("round trip lost data: %+v", back.Seed)
	}
	if back.Trace.MeanUtilization <= 0 || back.SWIM.MeanJobSeconds[HDFS] <= 0 {
		t.Error("summaries empty after round trip")
	}
	if back.Motivation.MemLocal <= 0 {
		t.Error("motivation lost")
	}
}
