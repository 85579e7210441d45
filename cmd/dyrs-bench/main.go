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
// -cpuprofile/-memprofile write pprof profiles of whatever mode ran,
// for digging into where simulation time and memory actually go;
// -mutexprofile/-blockprofile add contention profiles, the tools for
// judging how much wall-clock the sharded engine's window barriers
// actually cost.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dyrs/internal/experiments"
	"dyrs/internal/obs"
	"dyrs/internal/runner"
)

// main delegates to run so deferred profile flushes happen before exit.
func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 42, "simulation seed; identical seeds give identical results")
	only := flag.String("only", "", "comma-separated experiment subset (default: all)")
	asJSON := flag.Bool("json", false, "emit every experiment as one JSON document instead of text tables")
	jobs := flag.Int("jobs", 0, "max experiments running concurrently (0 = GOMAXPROCS)")
	verify := flag.Bool("verify", false, "run every experiment serially and in parallel and fail on any result divergence")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
	quiet := flag.Bool("q", false, "suppress per-experiment progress on stderr")
	manifestPath := flag.String("manifest", "", "write a run-manifest JSON (seed, flags, build, wall time, peak RSS) to this file")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			names := e.Name
			for _, a := range e.Aliases {
				names += "," + a
			}
			fmt.Printf("%-32s %s\n", names, e.Summary)
		}
		return 0
	}

	code := 0
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
		return 1
	}
	progress := progressPrinter(*quiet)

	// The manifest is written on the way out so it captures the full
	// wall time and peak RSS of whatever mode ran.
	if *manifestPath != "" {
		manifest := obs.NewManifest("dyrs-bench")
		manifest.Seed = *seed
		manifest.CaptureFlags(flag.CommandLine)
		defer func() {
			manifest.Finish(0)
			f, err := os.Create(*manifestPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
				return
			}
			err = manifest.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
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
				fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
				code = 1
			}
		}()
	}
	// Contention profiling must be switched on before any workload runs;
	// rate 1 records every event, affordable because simulation work is
	// long-running relative to its synchronization.
	writeLookup := func(path, name string) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
			code = 1
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
			code = 1
		}
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookup(*mutexProfile, "mutex")
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookup(*blockProfile, "block")
	}

	selected, sel, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dyrs-bench:", err)
		return 2
	}

	switch {
	case *verify:
		if *only != "" {
			fmt.Fprintln(os.Stderr, "dyrs-bench: -verify always checks every experiment; ignoring -only")
		}
		rep, err := experiments.VerifyDeterminism(*seed, *jobs, progress)
		if err != nil {
			return fail(err)
		}
		printVerify(rep)
		if !rep.OK() {
			return 1
		}

	case *asJSON:
		if *only != "" {
			fmt.Fprintln(os.Stderr, "dyrs-bench: -json always emits the full report; ignoring -only")
		}
		rep, err := experiments.RunAllParallel(*seed, *jobs, progress)
		if err != nil {
			return fail(err)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}

	default:
		start := time.Now()
		results := runner.Run(experimentJobs(selected, *seed),
			runner.Options{Jobs: *jobs, Progress: progress})
		if err := runner.FirstError(results); err != nil {
			return fail(err)
		}
		for i, res := range results {
			for _, section := range selected[i].Render(res.Value, sel) {
				fmt.Println(section)
			}
		}
		fmt.Printf("(all requested experiments regenerated in %.2fs wall-clock)\n",
			time.Since(start).Seconds())
	}
	return code
}

// experimentJobs adapts selected experiments to runner jobs.
func experimentJobs(selected []experiments.Experiment, seed int64) []runner.Job {
	out := make([]runner.Job, len(selected))
	for i, exp := range selected {
		exp := exp
		out[i] = runner.Job{
			Name: exp.Name,
			Run:  func() (any, error) { return exp.Run(seed) },
		}
	}
	return out
}

// progressPrinter returns a runner progress callback that narrates
// start/done events on stderr (stdout stays reserved for results, so
// byte-for-byte output comparisons are unaffected).
func progressPrinter(quiet bool) func(runner.Event) {
	if quiet {
		return nil
	}
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.EventStart:
			fmt.Fprintf(os.Stderr, "dyrs-bench: start %s\n", ev.Name)
		case runner.EventDone:
			status := ""
			if ev.Err != nil {
				status = " FAILED"
			}
			fmt.Fprintf(os.Stderr, "dyrs-bench: done  %-12s (%d/%d) %.2fs%s\n",
				ev.Name, ev.Done, ev.Total, ev.Elapsed.Seconds(), status)
		}
	}
}

// printVerify renders the determinism report.
func printVerify(rep experiments.VerifyReport) {
	fmt.Printf("determinism check: seed %d, serial vs %d-way parallel\n", rep.Seed, rep.Jobs)
	for _, row := range rep.Rows {
		status := "ok"
		if !row.OK() {
			status = fmt.Sprintf("DIVERGED (serial %s != parallel %s)",
				row.SerialHash[:12], row.ParallelHash[:12])
		}
		fmt.Printf("  %-12s %s  sha256:%s  serial %.2fs / parallel %.2fs\n",
			row.Name, status, row.SerialHash[:12], row.Serial.Seconds(), row.Parallel.Seconds())
	}
	if div := rep.Divergent(); len(div) > 0 {
		fmt.Printf("FAIL: %d experiment(s) diverged: %v\n", len(div), div)
	} else {
		fmt.Printf("PASS: all %d experiments bit-identical serial vs parallel\n", len(rep.Rows))
	}
}
