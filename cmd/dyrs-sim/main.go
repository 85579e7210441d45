// Command dyrs-sim runs one configurable scenario: a Sort job (or a Hive
// query) on a simulated cluster under a chosen policy, with optional
// interference, and prints job timings plus migration statistics.
//
// Examples:
//
//	dyrs-sim -policy DYRS -size 10 -lead 20s -interfere 0
//	dyrs-sim -policy Ignem -workload hive -query q15
//	dyrs-sim -policy HDFS -size 20 -alternate 10s -interfere 1
//	dyrs-sim -policy DYRS -size 10 -trace out.json -trace-format perfetto
//	dyrs-sim -policy DYRS -size 10 -trace out.json -trace-sample 64   # deterministic 1-in-64 sampling
//	dyrs-sim -policy DYRS -size 10 -trace run.prom -trace-format openmetrics -manifest man.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"time"

	"dyrs"
	"dyrs/internal/cluster"
	"dyrs/internal/experiments"
	"dyrs/internal/obs"
	"dyrs/internal/sim"
	"dyrs/internal/telemetry"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dyrs-sim:", err)
		os.Exit(1)
	}
}

// run executes one scenario end to end. It is main minus the exit code,
// so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dyrs-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policyFlag := fs.String("policy", "DYRS", "HDFS | HDFS-Inputs-in-RAM | Ignem | DYRS | Naive")
	wl := fs.String("workload", "sort", "sort | hive | swim")
	sizeGB := fs.Float64("size", 10, "sort input size in GB")
	query := fs.String("query", "q52", "hive query name (see dyrs.TPCDSQueries)")
	swimJobs := fs.Int("swim-jobs", 50, "number of trace jobs for the swim workload")
	lead := fs.Duration("lead", 10*time.Second, "artificially inserted lead-time")
	interfere := fs.Int("interfere", -1, "node index to run dd-style interference on (-1: none)")
	alternate := fs.Duration("alternate", 0, "alternate interference on/off with this period (0: persistent)")
	workers := fs.Int("workers", 7, "number of worker nodes")
	seed := fs.Int64("seed", 1, "simulation seed")
	showTelemetry := fs.Bool("telemetry", false, "render per-node disk utilization after the run")
	telemetryCSV := fs.String("telemetry-csv", "", "write raw telemetry samples (disk/NIC/memory series) to this CSV file")
	tracePath := fs.String("trace", "", "record a trace of the run and write it to this file")
	traceFormat := fs.String("trace-format", "json", "trace file format: json (canonical dyrs-trace/v2) | perfetto (Chrome trace-event JSON) | openmetrics (OpenMetrics text of the counters and histograms)")
	traceSample := fs.Int("trace-sample", 1, "keep 1-in-N root spans (deterministic; counters and histograms stay exact)")
	manifestPath := fs.String("manifest", "", "write a run-manifest JSON (seed, flags, build, wall/virtual time, peak RSS) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var manifest *obs.Manifest
	if *manifestPath != "" {
		manifest = obs.NewManifest("dyrs-sim")
		manifest.Seed = *seed
		manifest.CaptureFlags(fs)
	}

	policy := dyrs.Policy(*policyFlag)
	switch policy {
	case dyrs.PolicyHDFS, dyrs.PolicyRAM, dyrs.PolicyIgnem, dyrs.PolicyDYRS, dyrs.PolicyNaive:
	default:
		return fmt.Errorf("unknown policy %q", *policyFlag)
	}
	format, ok := traceFormats[*traceFormat]
	if !ok {
		return fmt.Errorf("unknown trace format %q (want json, perfetto or openmetrics)", *traceFormat)
	}
	unused, ok := unusedFlags[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sort, hive or swim)", *wl)
	}
	if *swimJobs <= 0 {
		return fmt.Errorf("-swim-jobs must be positive, got %d", *swimJobs)
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}
	if *interfere < -1 || *interfere >= *workers {
		return fmt.Errorf("-interfere must be -1 (none) or a node index below -workers %d, got %d", *workers, *interfere)
	}
	if *alternate < 0 {
		return fmt.Errorf("-alternate must not be negative, got %v", *alternate)
	}
	// Below one byte or past the int64 byte count is no file size; the
	// negated test also catches NaN.
	if b := *sizeGB * float64(dyrs.GB); !(b >= 1 && b < math.MaxInt64) {
		return fmt.Errorf("-size must be at least one byte and below %.0f GB, got %v", math.MaxInt64/float64(dyrs.GB), *sizeGB)
	}
	var unsupported string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(unused, f.Name) {
			unsupported += ", -" + f.Name
		}
	})
	if unsupported != "" {
		return fmt.Errorf("%s not supported with the %s workload", unsupported[2:], *wl)
	}

	if *wl == "hive" {
		if err := runHive(stdout, policy, *query, *seed); err != nil {
			return err
		}
		return writeManifest(manifest, *manifestPath, 0)
	}

	opt := dyrs.DefaultOptions(*seed)
	opt.Workers = *workers
	opt.Trace = *tracePath != ""
	opt.SampleEvery = *traceSample
	if err := opt.Validate(); err != nil {
		return err
	}
	// The format and the sample shape the trace file and nothing else.
	var traceless string
	fs.Visit(func(f *flag.Flag) {
		if !opt.Trace && (f.Name == "trace-format" || f.Name == "trace-sample") {
			traceless += ", -" + f.Name
		}
	})
	if traceless != "" {
		return fmt.Errorf("%s not supported without -trace", traceless[2:])
	}
	env := dyrs.NewEnv(policy, opt)

	var col *telemetry.Collector
	if *showTelemetry || *telemetryCSV != "" {
		col = telemetry.Start(env.Cl, env.FS, time.Second)
	}

	// The workload proper.
	var runErr error
	if *wl == "swim" {
		runErr = runSWIM(stdout, env, *swimJobs, *seed)
	} else {
		runErr = runSort(stdout, env, *sizeGB, *lead, *interfere, *alternate)
	}
	if runErr != nil {
		return runErr
	}

	if col != nil {
		col.Stop()
		if *showTelemetry {
			fmt.Fprintln(stdout, "\nper-node disk utilization (one column per second, 0-9 scale):")
			if err := col.RenderDisk(stdout, 100); err != nil {
				return err
			}
		}
		if *telemetryCSV != "" {
			if err := writeFile(*telemetryCSV, col.WriteCSV); err != nil {
				return fmt.Errorf("writing telemetry CSV: %w", err)
			}
		}
	}

	if opt.Trace {
		tr := env.Tracer()
		if err := writeFile(*tracePath, func(w io.Writer) error { return format.write(tr, w) }); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "\ntrace       : %s (%s)\n", *tracePath, *traceFormat)
		fmt.Fprintf(stdout, "trace summary:\n%s\n", tr.Summarize())
		if manifest != nil {
			manifest.AddSchema("trace", format.schema)
		}
	}
	return writeManifest(manifest, *manifestPath, env.Eng.Now())
}

// unusedFlags names, per workload, the flags its run never reads.
var unusedFlags = map[string][]string{
	"hive": {"workers", "size", "lead", "interfere", "alternate", "swim-jobs", "telemetry", "trace", "trace-format", "trace-sample", "telemetry-csv"},
	"swim": {"size", "lead", "interfere", "alternate", "query"},
	"sort": {"swim-jobs", "query"},
}

// traceFormats maps each -trace-format value to the tracer export that
// writes the file and the schema the manifest records for it.
var traceFormats = map[string]struct {
	write  func(*trace.Tracer, io.Writer) error
	schema string
}{
	"json":        {(*trace.Tracer).WriteJSON, trace.Schema},
	"perfetto":    {(*trace.Tracer).WriteChromeTrace, trace.ChromeSchema},
	"openmetrics": {(*trace.Tracer).WriteOpenMetrics, trace.OpenMetricsSchema},
}

// writeManifest finalises and writes the run manifest, if one was
// requested. A nil manifest is a no-op.
func writeManifest(m *obs.Manifest, path string, virtual sim.Time) error {
	if m == nil {
		return nil
	}
	m.Finish(virtual)
	if err := writeFile(path, m.WriteJSON); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	return nil
}

// writeFile creates path and streams write into it, reporting close
// errors (a trace truncated by a full disk should not look successful).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSort runs the single-job Sort scenario with optional interference.
func runSort(stdout io.Writer, env *dyrs.Env, sizeGB float64, lead time.Duration, interfere int, alternate time.Duration) error {
	if interfere >= 0 {
		node := cluster.NodeID(interfere)
		if alternate > 0 {
			defer cluster.StartAlternating(env.Eng, env.Cl.Node(node), 2, 2.5, alternate, true).Stop()
		} else {
			defer env.SlowNodeInterference(node)()
		}
	}
	if err := env.WarmupEstimates(); err != nil {
		return err
	}
	size := sim.Bytes(sizeGB * float64(dyrs.GB))
	j, err := env.RunSort(size, lead)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "policy      : %s\n", env.Policy)
	fmt.Fprintf(stdout, "input       : %s in %d blocks\n", sim.FormatBytes(size), len(j.Tasks))
	fmt.Fprintf(stdout, "lead-time   : %v (inserted %v)\n", j.LeadTime(), lead)
	fmt.Fprintf(stdout, "map phase   : %v\n", j.MapPhase())
	fmt.Fprintf(stdout, "end-to-end  : %v\n", j.Duration())
	srcs := map[string]int{}
	for _, tr := range j.Tasks {
		srcs[tr.Source.String()]++
	}
	fmt.Fprintf(stdout, "read sources: %v\n", srcs)
	if env.Coord != nil {
		st := env.Coord.Stats()
		fmt.Fprintf(stdout, "migration   : requested=%d migrated=%d dropped=%d evicted=%d hits=%d missed=%d bytes=%s\n",
			st.Requested, st.Migrated, st.Dropped, st.Evicted,
			st.MemoryHits, st.MissedReads, sim.FormatBytes(st.BytesMigrated))
	}
	return nil
}

// runSWIM replays a prefix of the SWIM trace workload in the prepared
// environment and prints aggregate job statistics.
func runSWIM(stdout io.Writer, env *dyrs.Env, jobs int, seed int64) error {
	cfg := workload.DefaultSWIMConfig()
	cfg.Jobs = jobs
	cfg.TotalInput = sim.Bytes(float64(cfg.TotalInput) * float64(jobs) / 200)
	if err := cfg.Validate(); err != nil {
		return err
	}
	swimJobs := workload.GenerateSWIM(rand.New(rand.NewSource(seed)), cfg)
	for _, j := range swimJobs {
		if err := env.CreateInput(j.FileName(), j.InputSize); err != nil {
			return err
		}
	}
	for _, j := range swimJobs {
		env.FW.SubmitAt(sim.Time(j.Arrival), j.Spec(true), nil)
	}
	if err := env.WaitJobs(len(swimJobs), 4*time.Hour); err != nil {
		return err
	}
	var total, mapTotal float64
	var tasks int
	for _, j := range env.FW.Results() {
		total += j.Duration().Seconds()
		mapTotal += j.MapPhase().Seconds()
		tasks += len(j.Tasks)
	}
	n := float64(len(env.FW.Results()))
	fmt.Fprintf(stdout, "policy      : %s\n", env.Policy)
	fmt.Fprintf(stdout, "jobs        : %d (%d map tasks)\n", len(env.FW.Results()), tasks)
	fmt.Fprintf(stdout, "avg job     : %.1fs (map phase %.1fs)\n", total/n, mapTotal/n)
	if env.Coord != nil {
		st := env.Coord.Stats()
		fmt.Fprintf(stdout, "migration   : migrated=%d dropped=%d hits=%d missed=%d bytes=%s\n",
			st.Migrated, st.Dropped, st.MemoryHits, st.MissedReads, sim.FormatBytes(st.BytesMigrated))
	}
	return nil
}

func runHive(stdout io.Writer, policy dyrs.Policy, name string, seed int64) error {
	for _, q := range dyrs.TPCDSQueries() {
		if q.Name != name {
			continue
		}
		d, err := experiments.RunHiveQuery(q, policy, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "query %s (%s) under %s: %.1fs\n",
			q.Name, sim.FormatBytes(q.InputSize), policy, d)
		return nil
	}
	return fmt.Errorf("unknown query %q", name)
}
