// Command dyrs-trace runs the Google-cluster-trace motivation analyses
// of the paper's §II (Figs. 1-3) over a synthetic trace calibrated to
// the published statistics.
//
// Usage:
//
//	dyrs-trace [-seed N] [-servers N] [-hours H] [-jobs N]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"dyrs/internal/experiments"
	"dyrs/internal/gtrace"
	"dyrs/internal/obs"
)

// maxHours is the longest trace span whose nanoseconds fit the clock.
const maxHours = math.MaxInt64 / int64(time.Hour)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dyrs-trace:", err)
		os.Exit(1)
	}
}

// run executes the analyses end to end; tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dyrs-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "trace synthesis seed")
	servers := fs.Int("servers", 40, "number of servers to synthesize")
	hours := fs.Int("hours", 24, "trace span in hours")
	jobs := fs.Int("jobs", 2000, "number of jobs for the lead-time analysis")
	jsonOut := fs.String("json", "", "also write the full trace as JSON to this file")
	utilCSV := fs.String("util-csv", "", "also write per-server utilization samples as CSV to this file")
	jobsCSV := fs.String("jobs-csv", "", "also write the job lead/read records as CSV to this file")
	loadJSON := fs.String("load", "", "analyze a trace loaded from this JSON file instead of synthesizing one")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON (seed, flags, build, wall time, peak RSS) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *servers < 1:
		return fmt.Errorf("-servers must be at least 1, got %d", *servers)
	case *hours < 1 || int64(*hours) > maxHours:
		return fmt.Errorf("-hours must be in [1, %d], got %d", maxHours, *hours)
	case *jobs < 0:
		return fmt.Errorf("-jobs must not be negative, got %d", *jobs)
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("dyrs-trace")
		manifest.Seed = *seed
		manifest.CaptureFlags(fs)
	}

	var trace *gtrace.Trace
	if *loadJSON != "" {
		f, err := os.Open(*loadJSON)
		if err != nil {
			return err
		}
		trace, err = gtrace.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		cfg := gtrace.DefaultConfig()
		cfg.Seed = *seed
		cfg.Servers = *servers
		cfg.Duration = time.Duration(*hours) * time.Hour
		cfg.Jobs = *jobs
		trace = gtrace.Generate(cfg)
	}

	rep := experiments.TraceReport{Trace: trace}
	fmt.Fprintln(stdout, rep.Fig1())
	fmt.Fprintln(stdout, rep.Fig2())
	fmt.Fprintln(stdout, rep.Fig3())

	export := func(path string, write func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
		return nil
	}
	if err := export(*jsonOut, func(f *os.File) error { return trace.WriteJSON(f) }); err != nil {
		return err
	}
	if err := export(*utilCSV, func(f *os.File) error { return trace.WriteUtilizationCSV(f) }); err != nil {
		return err
	}
	if err := export(*jobsCSV, func(f *os.File) error { return trace.WriteJobsCSV(f) }); err != nil {
		return err
	}
	if manifest != nil {
		manifest.Finish(0)
		if err := export(*manifestPath, func(f *os.File) error { return manifest.WriteJSON(f) }); err != nil {
			return err
		}
	}
	return nil
}
