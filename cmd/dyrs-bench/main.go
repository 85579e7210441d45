// Command dyrs-bench regenerates every table and figure of the DYRS
// paper's evaluation and prints them as text tables/series.
//
// Usage:
//
//	dyrs-bench [-seed N] [-jobs N] [-only fig4,table1,...] [-json] [-verify]
//
// Experiments are independent seeded simulations, so they run on a
// worker pool (-jobs, default GOMAXPROCS) with output merged in paper
// order — the result is byte-identical at any worker count. Experiment
// names: fig1 fig2 fig3 fig4 table1 fig5 fig6 fig7 fig8 fig9 table2
// fig10 fig11 plus the canonical group names (trace=figs1-3, hive=fig4,
// swim=table1+figs5-7) and the extension studies: motivation (§I
// read-speedup micro-comparison), order (future-work migration ordering
// policies), hotcold (cache vs migration on hot/cold data), iterative
// (cold-start penalty of iterative jobs). -list prints them all.
//
// -verify runs every experiment twice — serial and parallel, same
// seed — and fails unless each experiment's canonical JSON hashes
// identically, turning "identical seeds give identical results" into a
// machine-checked invariant.
//
// A flag that does not parse, a negative -jobs or an unknown -only name
// exits 2; a failed run or a diverged -verify exits 1.
//
// -cpuprofile/-memprofile write pprof profiles of whatever mode ran,
// for digging into where simulation time and memory actually go;
// -mutexprofile/-blockprofile add contention profiles, the tools for
// judging how much wall-clock the sharded engine's window barriers
// actually cost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dyrs/internal/experiments"
	"dyrs/internal/obs"
	"dyrs/internal/runner"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad command line; the command exits 2 for it, as for
// a flag it cannot parse.
type usageError struct{ error }

// run executes one mode end to end. It is main minus the exit code, so
// tests can drive the command in-process; deferred profile flushes
// finish before it returns.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("dyrs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "simulation seed; identical seeds give identical results")
	only := fs.String("only", "", "comma-separated experiment subset (default: all)")
	asJSON := fs.Bool("json", false, "emit every experiment as one JSON document instead of text tables")
	jobs := fs.Int("jobs", 0, "max experiments running concurrently (0 = GOMAXPROCS)")
	verify := fs.Bool("verify", false, "run every experiment serially and in parallel and fail on any result divergence")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	quiet := fs.Bool("q", false, "suppress per-experiment progress on stderr")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON (seed, flags, build, wall time, peak RSS) to this file")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *jobs < 0 {
		return usageError{fmt.Errorf("-jobs must not be negative, got %d", *jobs)}
	}

	if *list {
		for _, e := range experiments.Registry() {
			names := e.Name
			for _, a := range e.Aliases {
				names += "," + a
			}
			fmt.Fprintf(stdout, "%-32s %s\n", names, e.Summary)
		}
		return nil
	}

	selected, sel, err := experiments.Select(*only)
	if err != nil {
		return usageError{err}
	}
	progress := progressPrinter(stderr, *quiet)
	// keep records the first error a deferred flush meets.
	keep := func(ferr error) {
		if ferr != nil && err == nil {
			err = ferr
		}
	}

	// The manifest is written on the way out so it captures the full
	// wall time and peak RSS of whatever mode ran.
	if *manifestPath != "" {
		manifest := obs.NewManifest("dyrs-bench")
		manifest.Seed = *seed
		manifest.CaptureFlags(fs)
		defer func() {
			manifest.Finish(0)
			f, err := os.Create(*manifestPath)
			if err != nil {
				keep(err)
				return
			}
			keep(manifest.WriteJSON(f))
			keep(f.Close())
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				keep(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			keep(pprof.WriteHeapProfile(f))
		}()
	}
	// Contention profiling must be switched on before any workload runs;
	// rate 1 records every event, affordable because simulation work is
	// long-running relative to its synchronization.
	writeLookup := func(path, name string) {
		f, err := os.Create(path)
		if err != nil {
			keep(err)
			return
		}
		defer f.Close()
		keep(pprof.Lookup(name).WriteTo(f, 0))
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookup(*mutexProfile, "mutex")
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookup(*blockProfile, "block")
	}

	switch {
	case *verify:
		if *only != "" {
			fmt.Fprintln(stderr, "dyrs-bench: -verify always checks every experiment; ignoring -only")
		}
		rep, err := experiments.VerifyDeterminism(*seed, *jobs, progress)
		if err != nil {
			return err
		}
		printVerify(stdout, rep)
		if !rep.OK() {
			return errors.New("determinism check failed")
		}

	case *asJSON:
		if *only != "" {
			fmt.Fprintln(stderr, "dyrs-bench: -json always emits the full report; ignoring -only")
		}
		rep, err := experiments.RunAllParallel(*seed, *jobs, progress)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}

	default:
		start := time.Now()
		results := runner.Run(experiments.Jobs(selected, *seed),
			runner.Options{Jobs: *jobs, Progress: progress})
		if err := runner.FirstError(results); err != nil {
			return err
		}
		for i, res := range results {
			for _, section := range selected[i].Sections(res.Value, sel) {
				fmt.Fprintln(stdout, section)
			}
		}
		fmt.Fprintf(stdout, "(all requested experiments regenerated in %.2fs wall-clock)\n",
			time.Since(start).Seconds())
	}
	return nil
}

// progressPrinter returns a runner progress callback that narrates
// start/done events on stderr (stdout stays reserved for results, so
// byte-for-byte output comparisons are unaffected).
func progressPrinter(stderr io.Writer, quiet bool) func(runner.Event) {
	if quiet {
		return nil
	}
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.EventStart:
			fmt.Fprintf(stderr, "dyrs-bench: start %s\n", ev.Name)
		case runner.EventDone:
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(stderr, "dyrs-bench: done  %-12s (%d/%d) %.2fs%s\n",
				ev.Name, ev.Done, ev.Total, ev.Elapsed.Seconds(), status)
		}
	}
}

// printVerify renders the determinism report.
func printVerify(stdout io.Writer, rep experiments.VerifyReport) {
	fmt.Fprintf(stdout, "determinism check: seed %d, serial vs %d-way parallel\n", rep.Seed, rep.Jobs)
	for _, row := range rep.Rows {
		status := "ok"
		if !row.OK() {
			status = fmt.Sprintf("DIVERGED (serial %s != parallel %s)",
				row.SerialHash[:12], row.ParallelHash[:12])
		}
		fmt.Fprintf(stdout, "  %-12s %s  sha256:%s  serial %.2fs / parallel %.2fs\n",
			row.Name, status, row.SerialHash[:12], row.Serial.Seconds(), row.Parallel.Seconds())
	}
	if div := rep.Divergent(); len(div) > 0 {
		fmt.Fprintf(stdout, "FAIL: %d experiment(s) diverged: %v\n", len(div), div)
	} else {
		fmt.Fprintf(stdout, "PASS: all %d experiments bit-identical serial vs parallel\n", len(rep.Rows))
	}
}
