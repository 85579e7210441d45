//go:build amd64

// The examples print float-derived timings, so their stdout goldens are
// pinned to amd64 like the dyrs-sim, registry and harness goldens.

package dyrs_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesOutput runs every program under examples/ and compares its
// whole stdout with examples/<name>/testdata/stdout.txt. A declared
// regeneration copies the file a failing check writes under
// os.TempDir() over the golden.
func TestExamplesOutput(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		name := d.Name()
		var stderr bytes.Buffer
		cmd := exec.Command(goTool, "run", "./examples/"+name)
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
		}
		golden := filepath.Join("examples", name, "testdata", "stdout.txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		f, err := os.CreateTemp("", "dyrs-example-"+name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(got); err != nil {
			t.Fatal(err)
		}
		f.Close()
		t.Errorf("examples/%s: stdout differs from %s\n--- got:\n%s--- want:\n%s(recomputed output written to %s)",
			name, golden, got, want, f.Name())
	}
}
