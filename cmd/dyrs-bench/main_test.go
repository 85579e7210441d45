package main

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags covers command lines that must fail before
// any experiment runs: a negative -jobs (which used to run silently
// with GOMAXPROCS workers), an unknown -only name and an unknown flag.
// Each is a usage error, which exits 2.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "-3"}, "-jobs must not be negative, got -3"},
		{[]string{"-jobs", "-1", "-verify"}, "-jobs must not be negative, got -1"},
		{[]string{"-only", "fig4,bogus"}, "unknown experiment name(s) bogus; valid names:"},
		{[]string{"-bench"}, "flag provided but not defined: -bench"},
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			continue
		}
		if !errors.As(err, new(usageError)) {
			t.Errorf("run(%q) = %v, want a usage error", tc.args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout:\n%s", tc.args, out.String())
		}
	}
}

// TestRunList checks that -list writes the registry to stdout.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatalf("run(-list) = %v\nstderr: %s", err, errOut.String())
	}
	for _, want := range []string{"trace,fig1,fig2,fig3 ", "swim,table1,fig5,fig6,fig7 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunFailsOnUnwritableManifest: a -manifest path under a missing
// directory fails the run with the write's error, which exits 1 (it
// used to print the error and exit 0).
func TestRunFailsOnUnwritableManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.json")
	var out, errOut bytes.Buffer
	err := run([]string{"-only", "motivation", "-q", "-manifest", path}, &out, &errOut)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("run = %v, want the manifest's not-exist error", err)
	}
	if errors.As(err, new(usageError)) {
		t.Errorf("run = %v, a usage error (exit 2); want exit 1", err)
	}
}
