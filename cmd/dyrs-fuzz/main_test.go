package main

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

func TestSweepSmall(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seeds", "3"}, &out, &errb); err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok: 3 seeds") {
		t.Errorf("missing summary in output:\n%s", out.String())
	}
}

func TestSingleSeedVerbose(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "7"}, &out, &errb); err != nil {
		t.Fatalf("seed check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"scenario:", "job[0]", "dyrs run:", "passed all oracles"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestSingleSeedServing(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "3", "-serving", "-policy", "costaware"}, &out, &errb); err != nil {
		t.Fatalf("serving seed check failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"serving", "costaware run: served=", "passed all oracles"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestReproReplay(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-seed", "7", "-repro", "jobs=0"}, &out, &errb); err != nil {
		t.Fatalf("repro replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "jobs=1") {
		t.Errorf("mask not applied:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-repro", "jobs=0"}, &out, &errb); err == nil {
		t.Error("-repro without -seed accepted")
	}
	if err := run([]string{"-badflag"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-shards", "2", "-seed", "7"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Errorf("retired -shards flag: got %v, want unknown-flag error", err)
	}
	if err := run([]string{"-policy", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-policy", "hdfs"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("-policy hdfs: got %v, want unknown-policy error", err)
	}
	if err := run([]string{"-large", "-serving", "-seeds", "1"}, &out, &errb); err == nil {
		t.Error("-large with -serving accepted")
	}
	for _, n := range []string{"0", "-1"} {
		if err := run([]string{"-seeds", n}, &out, &errb); err == nil || !strings.Contains(err.Error(), "-seeds") {
			t.Errorf("-seeds %s: got %v, want an error naming -seeds", n, err)
		}
	}
	if err := run([]string{"-jobs", "-1", "-seeds", "1"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "-jobs must not be negative, got -1") {
		t.Errorf("-jobs -1: got %v, want an error naming -jobs", err)
	}
}

// TestUnwritableManifest: a -manifest path under a missing directory
// fails the run with the write's error (it used to be dropped).
func TestUnwritableManifest(t *testing.T) {
	var out, errb strings.Builder
	path := filepath.Join(t.TempDir(), "missing", "m.json")
	if err := run([]string{"-seeds", "1", "-manifest", path}, &out, &errb); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("run = %v, want the manifest's not-exist error\n%s", err, out.String())
	}
}
