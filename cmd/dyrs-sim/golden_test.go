//go:build amd64

// The runs print float-derived timings, so the stdout golden is pinned
// to amd64 like the registry and harness goldens: go1.24 fuses no
// multiply-add there, at any GOAMD64 level.

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenRuns are scenarios whose whole stdout is pinned, at seed 1, in
// the named testdata file. A declared regeneration copies the file a
// failing check writes under os.TempDir() over it.
var goldenRuns = []struct {
	file string
	args []string
}{
	{"sort-interfere.txt", []string{"-size", "5", "-interfere", "1"}},
	{"sort-alternate-naive.txt", []string{"-size", "5", "-interfere", "2", "-alternate", "10s", "-policy", "Naive"}},
	{"swim.txt", []string{"-workload", "swim", "-swim-jobs", "20"}},
	{"hive-q21.txt", []string{"-workload", "hive", "-query", "q21"}},
}

func TestGoldenStdout(t *testing.T) {
	for _, g := range goldenRuns {
		got := runOK(t, append([]string{"-seed", "1"}, g.args...))
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		f, err := os.CreateTemp("", "dyrs-sim-"+g.file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(got); err != nil {
			t.Fatal(err)
		}
		f.Close()
		t.Errorf("dyrs-sim %v: stdout differs from testdata/%s\n--- got:\n%s--- want:\n%s(recomputed output written to %s)",
			g.args, g.file, got, want, f.Name())
	}
}
