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
//	dyrs-sim -policy DYRS -size 10 -metrics-addr localhost:9090 -manifest man.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
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
	traceFormat := fs.String("trace-format", "json", "trace file format: json (canonical dyrs-trace/v2) | perfetto (Chrome trace-event JSON)")
	traceSample := fs.Int("trace-sample", 1, "keep 1-in-N root spans (deterministic; counters and histograms stay exact)")
	metricsAddr := fs.String("metrics-addr", "", "serve live OpenMetrics and progress JSON on this address while the run is in flight (e.g. localhost:9090)")
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
	switch *traceFormat {
	case "json", "perfetto":
	default:
		return fmt.Errorf("unknown trace format %q (want json or perfetto)", *traceFormat)
	}
	switch *wl {
	case "sort", "hive", "swim":
	default:
		return fmt.Errorf("unknown workload %q (want sort, hive or swim)", *wl)
	}
	if *swimJobs <= 0 {
		return fmt.Errorf("-swim-jobs must be positive, got %d", *swimJobs)
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	}

	if *wl == "hive" {
		if *tracePath != "" || *telemetryCSV != "" || *metricsAddr != "" {
			return fmt.Errorf("-trace, -telemetry-csv and -metrics-addr are not supported with the hive workload")
		}
		if err := runHive(stdout, policy, *query, *seed); err != nil {
			return err
		}
		return writeManifest(manifest, *manifestPath, 0)
	}

	opt := dyrs.DefaultOptions(*seed)
	opt.Workers = *workers
	// The live endpoint needs an attached tracer for counters and
	// histograms even when no trace file was requested.
	opt.Trace = *tracePath != "" || *metricsAddr != ""
	opt.SampleEvery = *traceSample
	if err := opt.Validate(); err != nil {
		return err
	}
	env := dyrs.NewEnv(policy, opt)
	defer env.Close()

	if *metricsAddr != "" {
		srv, err := obs.StartServer(*metricsAddr)
		if err != nil {
			return fmt.Errorf("starting metrics endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics     : http://%s/metrics (progress at /progress)\n", srv.Addr())
		stopTick := startMetricsTicker(env, srv)
		defer stopTick()
	}

	var col *telemetry.Collector
	if *showTelemetry || *telemetryCSV != "" {
		col = telemetry.Start(env.Cl, env.FS, time.Second)
	}

	// The workload proper.
	var runErr error
	if *wl == "swim" {
		runErr = runSWIM(stdout, env, *swimJobs, *seed)
	} else {
		runErr = runSort(stdout, env, policy, *sizeGB, *lead, *interfere, *alternate, *workers)
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

	if tr := env.Tracer(); tr.Enabled() && *tracePath != "" {
		write := tr.WriteJSON
		if *traceFormat == "perfetto" {
			write = tr.WriteChromeTrace
		}
		if err := writeFile(*tracePath, write); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "\ntrace       : %s (%s)\n", *tracePath, *traceFormat)
		fmt.Fprintf(stdout, "trace summary:\n%s\n", tr.Summarize())
		if manifest != nil {
			manifest.AddSchema("trace", trace.Schema)
		}
	}
	return writeManifest(manifest, *manifestPath, env.Eng.Now())
}

// startMetricsTicker schedules a self-rechaining virtual-time event that
// renders fresh OpenMetrics and progress snapshots for the live endpoint
// once per simulated second. The handler only reads simulation state and
// swaps immutable byte slices into the server, so enabling the endpoint
// never changes a run's results. The returned stop function publishes a
// final snapshot and unchains the ticker.
func startMetricsTicker(env *dyrs.Env, srv *obs.Server) (stop func()) {
	publish := func() {
		tr := env.Tracer()
		var metrics bytes.Buffer
		if err := tr.WriteOpenMetrics(&metrics); err == nil {
			progress := fmt.Sprintf("{\"virtual_ns\":%d,\"spans\":%d,\"instants\":%d}\n",
				int64(env.Eng.Now()), len(tr.Spans()), len(tr.Instants()))
			srv.Publish(metrics.Bytes(), []byte(progress))
		}
	}
	var ev *sim.Event
	var tick func()
	tick = func() {
		publish()
		ev = env.Eng.Schedule(sim.Duration(time.Second), tick)
	}
	ev = env.Eng.Schedule(sim.Duration(time.Second), tick)
	return func() {
		env.Eng.Cancel(ev)
		publish()
	}
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
func runSort(stdout io.Writer, env *dyrs.Env, policy dyrs.Policy,
	sizeGB float64, lead time.Duration, interfere int, alternate time.Duration, workers int) error {
	var stop func()
	if interfere >= 0 && interfere < workers {
		node := env.Cl.Node(cluster.NodeID(interfere))
		if alternate > 0 {
			p := cluster.StartAlternating(env.Eng, node, 2, 2.5, alternate, true)
			stop = p.Stop
		} else {
			inf := node.StartInterference(2, 2.5)
			stop = inf.Stop
		}
		defer stop()
	}

	if err := env.WarmupEstimates(); err != nil {
		return err
	}
	size := sim.Bytes(sizeGB * float64(dyrs.GB))
	if err := env.CreateInput("input", size); err != nil {
		return err
	}
	spec := env.Prepare(dyrs.SortSpec("input", 2*workers, policy.Migrates()))
	spec.ExtraLeadTime = lead
	j, err := env.FW.Submit(spec)
	if err != nil {
		return err
	}
	if err := env.WaitJob(j, time.Hour); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "policy      : %s\n", policy)
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
	swimJobs := workload.GenerateSWIM(rand.New(rand.NewSource(seed)), cfg)
	for _, j := range swimJobs {
		if err := env.CreateInput(j.FileName(), j.InputSize); err != nil {
			return err
		}
	}
	for _, j := range swimJobs {
		spec := env.Prepare(j.Spec(env.Policy.Migrates()))
		env.FW.SubmitAt(sim.Time(j.Arrival), spec, nil)
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
