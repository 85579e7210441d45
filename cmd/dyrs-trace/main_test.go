package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	jobsCSV := filepath.Join(dir, "jobs.csv")
	var out, errOut bytes.Buffer
	args := []string{"-seed", "1", "-servers", "8", "-hours", "2", "-jobs", "50", "-jobs-csv", jobsCSV}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v) failed: %v\nstderr: %s", args, err, errOut.String())
	}
	if out.Len() == 0 {
		t.Fatal("no output")
	}
	if !strings.Contains(out.String(), "wrote "+jobsCSV) {
		t.Errorf("missing export confirmation:\n%s", out.String())
	}
}

// Bad synthesis flags are errors at the flag boundary, not panics deep
// in trace generation.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-servers", "0"},
		{"-servers", "-3"},
		{"-hours", "0"},
		{"-hours", "-1"},
		{"-hours", "2562048"},
		{"-jobs", "-5"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run(%v) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

func TestRunRejectsBadLoadPath(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "missing.json")}, &out, &errOut); err == nil {
		t.Fatal("want error for missing -load file")
	}
}
