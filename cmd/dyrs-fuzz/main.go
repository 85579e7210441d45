// Command dyrs-fuzz sweeps randomized scenarios through the fuzzing
// harness (internal/harness): each seed generates a cluster topology, a
// mixed workload and a fault schedule, runs it under the selected
// migrating policy twice and under plain HDFS once, and checks the
// invariant, conservation, liveness, metamorphic and determinism
// oracles.
//
// Examples:
//
//	dyrs-fuzz -seeds 200                 # sweep seeds 1..200 in parallel
//	dyrs-fuzz -seeds 20 -large           # datacenter-shaped topologies (64-256 nodes)
//	dyrs-fuzz -seeds 25 -serving         # multi-tenant serving scenarios
//	dyrs-fuzz -seeds 50 -policy costaware # ... under another migrating policy
//	dyrs-fuzz -seed 17                   # check one seed, verbosely
//	dyrs-fuzz -seed 17 -repro 'faults=0;jobs=1'   # replay a shrunk repro
//
// On the first failing seed the harness shrinks the scenario (dropping
// faults, then jobs, while the same oracle keeps failing) and prints a
// one-line reproduction command carrying the envelope and the policy
// name. Each failing seed also leaves the failing run's whole canonical
// trace in the -artifacts directory as trace-seed<N>.json; its sha256
// is the trace hash the seed's report prints.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dyrs/internal/harness"
	"dyrs/internal/migration"
	"dyrs/internal/obs"
	"dyrs/internal/policy"
	"dyrs/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dyrs-fuzz:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, so tests can drive the binary
// in-process.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("dyrs-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "check a single seed (0: sweep -seeds)")
	seeds := fs.Int("seeds", 50, "number of consecutive seeds to sweep")
	start := fs.Int64("start", 1, "first seed of the sweep")
	jobs := fs.Int("jobs", 0, "parallel scenario checks (0: GOMAXPROCS)")
	repro := fs.String("repro", "", "keep-mask from a shrunk repro, e.g. 'faults=0,2;jobs=1' (requires -seed)")
	large := fs.Bool("large", false, "draw datacenter-shaped scenarios (64-256 nodes, multi-rack)")
	serving := fs.Bool("serving", false, "draw multi-tenant serving scenarios (open-loop Zipf/diurnal read stream)")
	policyName := fs.String("policy", "", "migrating policy for the oracle runs: "+
		strings.Join(policy.Names(), ", ")+" (default dyrs)")
	shrink := fs.Bool("shrink", true, "shrink failing scenarios to a minimal repro")
	artifacts := fs.String("artifacts", ".", "directory for failure artifacts: a failing seed's canonical trace JSON, trace-seed<N>.json, whose sha256 is the run's trace hash; empty disables")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON (seed, flags, build, wall time, peak RSS) to this file")
	verbose := fs.Bool("v", false, "print every scenario as it is checked")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs must not be negative, got %d", *jobs)
	}

	if *manifestPath != "" {
		manifest := obs.NewManifest("dyrs-fuzz")
		manifest.Seed = *start
		if *seed != 0 {
			manifest.Seed = *seed
		}
		manifest.CaptureFlags(fs)
		// The manifest is written on the way out; the first error its
		// write meets is returned unless the run already failed.
		defer func() {
			manifest.Finish(0)
			f, ferr := os.Create(*manifestPath)
			if ferr == nil {
				ferr = manifest.WriteJSON(f)
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if err == nil {
				err = ferr
			}
		}()
	}

	if *policyName != "" {
		if _, err := migration.BinderByName(*policyName); err != nil {
			return err
		}
	}
	if *large && *serving {
		return fmt.Errorf("-large and -serving are mutually exclusive envelopes")
	}
	if *repro != "" && *seed == 0 {
		return fmt.Errorf("-repro requires -seed")
	}
	if *seed == 0 && *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	base := harness.Repro{Large: *large, Serving: *serving, Policy: *policyName}
	if *seed != 0 {
		base.Seed = *seed
		return checkOne(stdout, base, *repro, *shrink, *artifacts)
	}

	type outcome struct {
		rep      harness.Repro
		failures []harness.Failure
	}
	work := make([]runner.Job, *seeds)
	for i := 0; i < *seeds; i++ {
		s := *start + int64(i)
		rep := base
		rep.Seed = s
		work[i] = runner.Job{
			Name: fmt.Sprintf("seed-%d", s),
			Run: func() (any, error) {
				return outcome{rep: rep, failures: harness.CheckScenario(rep.Scenario())}, nil
			},
		}
	}
	var progress func(runner.Event)
	if *verbose {
		progress = func(ev runner.Event) {
			if ev.Kind == runner.EventDone {
				fmt.Fprintf(stdout, "[%d/%d] %s (%.1fs)\n", ev.Done, ev.Total, ev.Name, ev.Elapsed.Seconds())
			}
		}
	}
	results := runner.Run(work, runner.Options{Jobs: *jobs, Progress: progress})

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(stdout, "%s: harness error: %v\n", r.Name, r.Err)
			continue
		}
		oc := r.Value.(outcome)
		if len(oc.failures) == 0 {
			continue
		}
		failed++
		reportFailure(stdout, oc.rep, oc.failures, *shrink, *artifacts)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds failed", failed, *seeds)
	}
	fmt.Fprintf(stdout, "ok: %d seeds, %d scenario runs, all oracles passed\n",
		*seeds, *seeds*harness.OracleRunsPerSeed)
	return nil
}

// checkOne replays a single seed (optionally under a repro keep-mask)
// and reports in detail.
func checkOne(stdout io.Writer, base harness.Repro, mask string, shrink bool, artifacts string) error {
	rep, err := harness.ParseRepro(base.Seed, mask)
	if err != nil {
		return err
	}
	rep.Large = base.Large
	rep.Serving = base.Serving
	rep.Policy = base.Policy
	sc := rep.Scenario()
	fmt.Fprintf(stdout, "scenario: %s\n", sc)
	for i, j := range sc.Jobs {
		fmt.Fprintf(stdout, "  job[%d]   %-10s %s  size=%d  submit=%v lead=%v\n",
			i, j.Kind, j.File, j.Size, j.Submit, j.Lead)
	}
	for i, f := range sc.Faults {
		fmt.Fprintf(stdout, "  fault[%d] %-14s node=%d at=%v\n", i, f.Kind, f.Node, f.At)
	}
	r := harness.RunScenario(sc, "DYRS")
	if sc.Serving {
		fmt.Fprintf(stdout, "%s run: served=%d/%d stats=%+v trace=%.12s…\n",
			binderName(sc.Policy), r.RequestsServed, r.RequestsIssued, r.Stats, r.TraceHash)
	} else {
		fmt.Fprintf(stdout, "%s run: completed=%d/%d stats=%+v trace=%.12s…\n",
			binderName(sc.Policy), len(r.Completed), r.Submitted, r.Stats, r.TraceHash)
	}
	failures := harness.CheckScenario(sc)
	if len(failures) == 0 {
		fmt.Fprintf(stdout, "ok: seed %d passed all oracles\n", base.Seed)
		return nil
	}
	// A repro replay is already reduced; only shrink the full scenario.
	reportFailure(stdout, rep, failures, shrink && mask == "", artifacts)
	return fmt.Errorf("seed %d failed %d oracle check(s)", base.Seed, len(failures))
}

// binderName names the migrating policy for reports.
func binderName(policy string) string {
	if policy == "" {
		return "dyrs"
	}
	return policy
}

// reportFailure prints a seed's oracle violations, the trace artifact,
// and, when asked, the shrunk reproduction command.
func reportFailure(stdout io.Writer, rep harness.Repro, failures []harness.Failure, shrink bool, artifacts string) {
	fmt.Fprintf(stdout, "FAIL seed %d policy=%s (%d violations):\n",
		rep.Seed, binderName(rep.Policy), len(failures))
	for _, f := range failures {
		fmt.Fprintf(stdout, "  %s\n", f)
	}
	if artifacts != "" {
		writeTrace(stdout, rep, artifacts)
	}
	if !shrink {
		return
	}
	oracle := harness.FailedOracles(failures)[0]
	shrunk := harness.Shrink(rep, oracle)
	fmt.Fprintf(stdout, "  shrunk to %d event(s); repro: %s\n", shrunk.Events(), shrunk.Command())
}

// writeTrace re-runs the failing scenario and writes its canonical
// trace to trace-seed<N>.json under artifacts. Runs are deterministic,
// so the file is the reported run's trace and its sha256 is that run's
// trace hash.
func writeTrace(stdout io.Writer, rep harness.Repro, artifacts string) {
	path := filepath.Join(artifacts, fmt.Sprintf("trace-seed%d.json", rep.Seed))
	f, err := os.Create(path)
	if err == nil {
		err = harness.WriteScenarioTrace(f, rep.Scenario(), "DYRS")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stdout, "  trace artifact failed: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "  trace: %s\n", path)
}
