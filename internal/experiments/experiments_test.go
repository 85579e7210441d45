package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/gtrace"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// These are integration tests of whole experiments: they assert the
// paper's qualitative claims (who wins, roughly by how much) with
// tolerant bounds, not exact numbers.

func TestEnvPolicies(t *testing.T) {
	t.Parallel()
	migrating := map[Policy]bool{Ignem: true, DYRS: true, Naive: true}
	for _, p := range []Policy{HDFS, RAM, Ignem, DYRS, Naive} {
		env := NewEnv(p, DefaultOptions(1))
		if migrating[p] && env.Coord == nil {
			t.Errorf("%s: no coordinator", p)
		}
		if !migrating[p] && env.Coord != nil {
			t.Errorf("%s: unexpected coordinator", p)
		}
	}
}

func TestCreateInputPinsUnderRAM(t *testing.T) {
	t.Parallel()
	env := NewEnv(RAM, DefaultOptions(1))
	if err := env.CreateInput("x", 512*sim.MB); err != nil {
		t.Fatal(err)
	}
	if env.FS.MemReplicaCount() != 2 {
		t.Errorf("RAM policy did not pin inputs: %d", env.FS.MemReplicaCount())
	}
	env2 := NewEnv(HDFS, DefaultOptions(1))
	env2.CreateInput("x", 512*sim.MB)
	if env2.FS.MemReplicaCount() != 0 {
		t.Error("HDFS policy pinned inputs")
	}
}

// TestPolicyDecidesMigration: every Sort job asks for its input
// (Migrate is set by the builder), and the policy's migration Manager
// alone decides what moves. HDFS and RAM run no coordinator, so HDFS
// ends with nothing in memory and RAM with exactly its pinned input;
// each migrating policy's coordinator receives every input block.
func TestPolicyDecidesMigration(t *testing.T) {
	t.Parallel()
	if !workload.SortSpec("in", 4).Migrate {
		t.Fatal("SortSpec does not ask for its input")
	}
	for _, p := range []Policy{HDFS, RAM, Ignem, DYRS, Naive} {
		env := NewEnv(p, DefaultOptions(1))
		if _, err := env.RunSort(sim.GB, 0); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		ids, err := env.FS.FileBlockIDs([]string{"sort-input"})
		if err != nil {
			t.Fatal(err)
		}
		blocks := len(ids)
		switch p {
		case HDFS, RAM:
			if env.Coord != nil {
				t.Errorf("%s: unexpected coordinator", p)
			}
			want := 0
			if p == RAM {
				want = blocks
			}
			if got := env.FS.MemReplicaCount(); got != want {
				t.Errorf("%s: %d memory replicas after the job, want %d", p, got, want)
			}
		default:
			if got := env.Coord.Stats().Requested; got != blocks {
				t.Errorf("%s: coordinator got %d block requests, want the %d input blocks", p, got, blocks)
			}
		}
	}
}

func TestWarmupEstimates(t *testing.T) {
	t.Parallel()
	env := NewEnv(DYRS, DefaultOptions(1))
	env.SlowNodeInterference(0)
	if err := env.WarmupEstimates(); err != nil {
		t.Fatal(err)
	}
	std := float64(env.FS.Config().BlockSize)
	slow, _ := env.Coord.Estimate(0)
	fast, _ := env.Coord.Estimate(3)
	if slow < 2*fast {
		t.Errorf("warmup did not teach the slow node: slow=%.1fs fast=%.1fs", slow*std, fast*std)
	}
	// Warmup must leave no residue.
	if env.FS.TotalMemUsed() != 0 {
		t.Errorf("warmup left %d bytes in memory", env.FS.TotalMemUsed())
	}
	// HDFS env: warmup is a no-op.
	env2 := NewEnv(HDFS, DefaultOptions(1))
	if err := env2.WarmupEstimates(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitJobTimeout: RunJob runs a job to completion, and gives up on
// one still running an Hour of virtual time after submission, returning
// it unfinished with an error.
func TestWaitJobTimeout(t *testing.T) {
	t.Parallel()
	env := NewEnv(HDFS, DefaultOptions(1))
	env.CreateInput("in", sim.GB)
	j, err := env.RunJob(workload.SortSpec("in", 4))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != compute.JobDone {
		t.Fatalf("RunJob returned without error but job state is %v", j.State)
	}
	slow := workload.SortSpec("in", 4)
	slow.MapCPUPerByte = 1e-3 // days of CPU per block
	start := env.Eng.Now()
	j, err = env.RunJob(slow)
	if err == nil || !strings.Contains(err.Error(), "did not finish within 1h0m0s") {
		t.Fatalf("want a one-hour timeout error, got %v", err)
	}
	if j == nil || j.State == compute.JobDone {
		t.Fatalf("timed-out job = %+v, want the unfinished job", j)
	}
	if got := env.Eng.Now().Sub(start); got != Hour {
		t.Errorf("RunJob gave up after %v, want %v", got, Hour)
	}
}

func TestHiveSingleQueryShape(t *testing.T) {
	t.Parallel()
	q := workload.TPCDSQueries()[1] // 3.5GB: small enough to fully migrate
	durs := map[Policy]float64{}
	for _, p := range AllPolicies {
		d, err := RunHiveQuery(q, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		durs[p] = d
	}
	if durs[DYRS] >= durs[HDFS] {
		t.Errorf("DYRS (%.1fs) did not beat HDFS (%.1fs)", durs[DYRS], durs[HDFS])
	}
	if sp := metrics.Speedup(durs[HDFS], durs[DYRS]); sp < 0.2 {
		t.Errorf("DYRS speedup %.2f below expectation for a small query", sp)
	}
	if durs[RAM] >= durs[HDFS] {
		t.Errorf("RAM (%.1fs) did not beat HDFS (%.1fs)", durs[RAM], durs[HDFS])
	}
}

func TestHiveReportRendering(t *testing.T) {
	t.Parallel()
	rep := HiveReport{Rows: []HiveRow{{
		Query: "q1", InputGB: 2,
		Durations: map[Policy]float64{HDFS: 100, RAM: 50, Ignem: 110, DYRS: 64},
	}}}
	if s := rep.Rows[0].Speedup(DYRS); s != 0.36 {
		t.Errorf("speedup = %v", s)
	}
	if n := rep.Rows[0].Normalized(Ignem); n != 1.1 {
		t.Errorf("normalized = %v", n)
	}
	if m := rep.MeanSpeedup(DYRS); m != 0.36 {
		t.Errorf("mean = %v", m)
	}
	max, q := rep.MaxSpeedup(RAM)
	if max != 0.5 || q != "q1" {
		t.Errorf("max = %v %v", max, q)
	}
	out := rep.String()
	for _, want := range []string{"q1", "+36%", "1.10x"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestSWIMShape(t *testing.T) {
	t.Parallel()
	rep, err := RunSWIM(7)
	if err != nil {
		t.Fatal(err)
	}
	hdfs := rep.Runs[HDFS].MeanJobSeconds()
	ram := rep.Runs[RAM].MeanJobSeconds()
	dyrs := rep.Runs[DYRS].MeanJobSeconds()
	ignem := rep.Runs[Ignem].MeanJobSeconds()
	// Table I ordering: RAM <= DYRS < HDFS < Ignem.
	if !(ram <= dyrs && dyrs < hdfs && hdfs < ignem) {
		t.Errorf("Table I ordering violated: RAM=%.1f DYRS=%.1f HDFS=%.1f Ignem=%.1f",
			ram, dyrs, hdfs, ignem)
	}
	// DYRS speedup in the paper's ballpark (33%): accept 10-50%.
	if sp := metrics.Speedup(hdfs, dyrs); sp < 0.10 || sp > 0.50 {
		t.Errorf("DYRS SWIM speedup %.2f out of band", sp)
	}
	// Ignem is a large slowdown (paper: -111%).
	if sp := metrics.Speedup(hdfs, ignem); sp > -0.3 {
		t.Errorf("Ignem slowdown %.2f too mild", sp)
	}
	// Fig 6: mappers substantially faster under DYRS (paper: 1.8x).
	mh := rep.Runs[HDFS].MapperDurations.Mean()
	md := rep.Runs[DYRS].MapperDurations.Mean()
	if mh/md < 1.3 {
		t.Errorf("mapper speedup %.2fx below band", mh/md)
	}
	// Fig 7: DYRS uses less memory than the hypothetical scheme.
	if rep.Runs[DYRS].BytesMigrated >= rep.Runs[RAM].BytesMigrated {
		t.Errorf("DYRS migrated more bytes (%d) than the hypothetical scheme (%d)",
			rep.Runs[DYRS].BytesMigrated, rep.Runs[RAM].BytesMigrated)
	}
	if rep.Runs[RAM].HypotheticalMemSamples.Len() == 0 {
		t.Error("hypothetical memory reconstruction empty")
	}
	// All 200 jobs completed in every run.
	for p, r := range rep.Runs {
		if len(r.Jobs) != 200 {
			t.Errorf("%s finished %d of 200 jobs", p, len(r.Jobs))
		}
	}
	// Renderings include the headline sections.
	for _, s := range []string{rep.TableI(), rep.Fig5(), rep.Fig6(), rep.Fig7()} {
		if len(s) == 0 {
			t.Error("empty rendering")
		}
	}
}

func TestSizeBin(t *testing.T) {
	t.Parallel()
	cases := map[sim.Bytes]string{
		10 * sim.MB: "small",
		63 * sim.MB: "small",
		64 * sim.MB: "medium",
		sim.GB:      "medium",
		2 * sim.GB:  "large",
		24 * sim.GB: "large",
	}
	for in, want := range cases {
		if got := SizeBin(in); got != want {
			t.Errorf("SizeBin(%d) = %s, want %s", in, got, want)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	rep, err := RunFig8(7)
	if err != nil {
		t.Fatal(err)
	}
	share := func(setup string, p Policy) float64 {
		counts := rep.Reads[setup][p]
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(counts[rep.SlowNode]) / float64(total)
	}
	// With a slow node, DYRS avoids it far more than Ignem does.
	if share("slow-node", DYRS) >= share("slow-node", Ignem)*0.8 {
		t.Errorf("DYRS slow share %.2f not clearly below Ignem %.2f",
			share("slow-node", DYRS), share("slow-node", Ignem))
	}
	// Homogeneous: DYRS spreads about evenly (share within 2x of 1/7).
	if s := share("homogeneous", DYRS); s < 0.05 || s > 0.30 {
		t.Errorf("homogeneous DYRS slow-node share %.2f not balanced", s)
	}
	if out := rep.String(); !strings.Contains(out, "Fig 8") {
		t.Error("rendering broken")
	}
}

func TestTableIIShape(t *testing.T) {
	t.Parallel()
	rep, err := RunTableII(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	byFig := map[string]float64{}
	for _, r := range rep.Rows {
		byFig[r.Figure] = r.Runtime
		if len(r.EstimateNode1) == 0 || len(r.EstimateNode2) == 0 {
			t.Errorf("%s: missing estimate series", r.Figure)
		}
	}
	// Same total interference => similar runtime: 9b vs 9c within 10%.
	if diff := byFig["9b"] / byFig["9c"]; diff < 0.9 || diff > 1.1 {
		t.Errorf("9b/9c runtimes differ: %.1f vs %.1f", byFig["9b"], byFig["9c"])
	}
	// Less interference (9b: active 50%% of the time) is not slower than
	// persistent interference (9a).
	if byFig["9b"] > byFig["9a"]*1.05 {
		t.Errorf("9b (%.1f) slower than 9a (%.1f)", byFig["9b"], byFig["9a"])
	}
	if out := rep.String(); !strings.Contains(out, "Table II") {
		t.Error("rendering broken")
	}
	if out := rep.Fig9String(); !strings.Contains(out, "Fig 9a") {
		t.Error("fig9 rendering broken")
	}
}

func TestFig9EstimateTracksInterference(t *testing.T) {
	t.Parallel()
	rep, err := RunTableII(7)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent pattern (9a): node1's estimate must sit well above
	// node2's on average.
	for _, r := range rep.Rows {
		if r.Figure != "9a" {
			continue
		}
		mean := func(pts []metrics.TimePoint) float64 {
			var s float64
			for _, p := range pts {
				s += p.V
			}
			return s / float64(len(pts))
		}
		m1, m2 := mean(r.EstimateNode1), mean(r.EstimateNode2)
		if m1 < 1.5*m2 {
			t.Errorf("9a: node1 estimate %.1fs not clearly above node2 %.1fs", m1, m2)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	rep, err := RunFig10(7)
	if err != nil {
		t.Fatal(err)
	}
	slowNaive, overhangNaive := rep.SlowTail(Naive, 10)
	slowDYRS, overhangDYRS := rep.SlowTail(DYRS, 10)
	if overhangDYRS >= overhangNaive {
		t.Errorf("DYRS overhang %.1fs not below naive %.1fs", overhangDYRS, overhangNaive)
	}
	if slowDYRS > slowNaive {
		t.Errorf("DYRS used the slow node more (%d) than naive (%d) at the tail", slowDYRS, slowNaive)
	}
	if out := rep.String(); !strings.Contains(out, "Fig 10") {
		t.Error("rendering broken")
	}
}

func TestFig11Shape(t *testing.T) {
	t.Parallel()
	rep, err := RunFig11(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 16 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// At the largest lead, small sorts see bigger map-phase speedup than
	// the largest sorts at zero lead (Fig. 11a's shrinking-speedup trend,
	// checked loosely across the sweep corners).
	var small40, large0 float64
	for _, r := range rep.Rows {
		sp := metrics.Speedup(r.MapSeconds[HDFS], r.MapSeconds[DYRS])
		if r.SizeGB == 2 && r.ExtraLead == 40 {
			small40 = sp
		}
		if r.SizeGB == 20 && r.ExtraLead == 0 {
			large0 = sp
		}
	}
	if small40 <= large0 {
		t.Errorf("speedup trend inverted: 2GB@40s=%.2f vs 20GB@0s=%.2f", small40, large0)
	}
	// Fig 11b: for the smallest sort, inserting 40s of lead increases
	// end-to-end duration relative to 10s of lead (short jobs cannot
	// amortize it).
	var e2e10, e2e40 float64
	for _, r := range rep.Rows {
		if r.SizeGB == 2 && r.ExtraLead == 10 {
			e2e10 = r.TotalSeconds[DYRS]
		}
		if r.SizeGB == 2 && r.ExtraLead == 40 {
			e2e40 = r.TotalSeconds[DYRS]
		}
	}
	if e2e40 <= e2e10 {
		t.Errorf("extra lead should hurt short jobs: e2e@10s=%.1f e2e@40s=%.1f", e2e10, e2e40)
	}
	if out := rep.String(); !strings.Contains(out, "Fig 11") {
		t.Error("rendering broken")
	}
}

func TestTraceReport(t *testing.T) {
	t.Parallel()
	rep := RunTrace(3)
	for _, s := range []string{rep.Fig1(), rep.Fig2(), rep.Fig3()} {
		if len(s) < 20 {
			t.Errorf("rendering too short: %q", s)
		}
	}
	if rep.Trace.MeanUtilization() <= 0 {
		t.Error("empty trace")
	}
}

// TestTraceReportDescribesItsTrace: Figs. 1 and 3 name the trace's own
// server count and span, and leave the span out when a loaded file's Cfg
// is empty, instead of always describing 40 servers over 24h.
func TestTraceReportDescribesItsTrace(t *testing.T) {
	t.Parallel()
	cfg := gtrace.DefaultConfig()
	cfg.Servers, cfg.Duration, cfg.Jobs = 5, 2*time.Hour, 50
	small := TraceReport{Trace: gtrace.Generate(cfg)}
	legacy := TraceReport{Trace: &gtrace.Trace{Util: small.Trace.Util, Jobs: small.Trace.Jobs}}
	for _, tc := range []struct {
		name       string
		rep        TraceReport
		fig1, fig3 string
	}{
		{"default", RunTrace(1),
			"Fig 1 — Disk utilization over 24h for three servers (5-min samples, downsampled)\n",
			"Fig 3 — CDF of disk utilization samples, 40 servers x 24h\n"},
		{"small", small,
			"Fig 1 — Disk utilization over 2h for three servers (5-min samples, downsampled)\n",
			"Fig 3 — CDF of disk utilization samples, 5 servers x 2h\n"},
		{"legacy", legacy,
			"Fig 1 — Disk utilization for three servers (5-min samples, downsampled)\n",
			"Fig 3 — CDF of disk utilization samples, 5 servers\n"},
	} {
		if got := tc.rep.Fig1(); !strings.HasPrefix(got, tc.fig1) {
			t.Errorf("%s: Fig 1 heading = %q, want %q", tc.name, strings.SplitAfter(got, "\n")[0], tc.fig1)
		}
		if got := tc.rep.Fig3(); !strings.HasPrefix(got, tc.fig3) {
			t.Errorf("%s: Fig 3 heading = %q, want %q", tc.name, strings.SplitAfter(got, "\n")[0], tc.fig3)
		}
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tb := NewTable("Title", "a", "bb")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer", "v")
	out := tb.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "1.50") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	t.Parallel()
	if Pct(0.33) != "+33%" {
		t.Errorf("Pct(0.33) = %s", Pct(0.33))
	}
	if Pct(-1.11) != "-111%" {
		t.Errorf("Pct(-1.11) = %s", Pct(-1.11))
	}
}

func TestOrderPolicies(t *testing.T) {
	t.Parallel()
	rep, err := RunOrderPolicies(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	byOrder := map[string]OrderRow{}
	for _, r := range rep.Rows {
		byOrder[r.Order.String()] = r
	}
	// SJF must improve small-job latency over FIFO: small jobs only need
	// a block or two migrated, so ordering them first rescues them from
	// behind the large jobs' backlog.
	if byOrder["SJF"].SmallMean >= byOrder["FIFO"].SmallMean {
		t.Errorf("SJF small mean %.1fs not below FIFO %.1fs",
			byOrder["SJF"].SmallMean, byOrder["FIFO"].SmallMean)
	}
	if out := rep.String(); !strings.Contains(out, "SJF") {
		t.Error("rendering broken")
	}
}

func TestMotivationShape(t *testing.T) {
	t.Parallel()
	rep, err := RunMotivation(7)
	if err != nil {
		t.Fatal(err)
	}
	// §I ordering: mem-local < mem-remote < ssd < disk-idle < disk-busy.
	if !(rep.MemLocal < rep.MemRemote && rep.MemRemote < rep.SSDIdle &&
		rep.SSDIdle < rep.DiskIdle && rep.DiskIdle < rep.DiskBusy) {
		t.Errorf("latency ordering violated: %+v", rep)
	}
	// The SSD read is the read latency plus one block streamed at
	// ssdBandwidth (0.514 s), with nothing else on the device.
	cfg := dfs.DefaultConfig()
	want := dfs.ReadLatency.Seconds() + float64(cfg.BlockSize)/ssdBandwidth
	if math.Abs(rep.SSDIdle-want) > 1e-9 {
		t.Errorf("SSDIdle = %.9fs, want %.9fs", rep.SSDIdle, want)
	}
	// RAM over SSD: paper says 7x; accept 3-30x.
	if r := rep.SSDIdle / rep.MemLocal; r < 3 || r > 30 {
		t.Errorf("RAM vs SSD = %.1fx out of band", r)
	}
	// Mapper speedup: paper says 10x; accept 5-20x.
	if r := rep.MapperSpeedup(); r < 5 || r > 20 {
		t.Errorf("mapper speedup = %.1fx out of band", r)
	}
	if out := rep.String(); !strings.Contains(out, "Motivation") {
		t.Error("rendering broken")
	}
}

func TestHotColdShape(t *testing.T) {
	t.Parallel()
	rep, err := RunHotCold(7)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[HotColdConfig]HotColdRow{}
	for _, r := range rep.Rows {
		rows[r.Config] = r
	}
	base := rows[HCBaseline]
	// The cache accelerates hot jobs but leaves cold jobs at disk speed
	// (the paper's motivation for DYRS).
	if rows[HCCache].HotMean >= base.HotMean*0.95 {
		t.Errorf("cache did not help hot jobs: %.1f vs %.1f", rows[HCCache].HotMean, base.HotMean)
	}
	if rows[HCCache].ColdMean < base.ColdMean*0.9 {
		t.Errorf("cache unexpectedly helped cold jobs: %.1f vs %.1f", rows[HCCache].ColdMean, base.ColdMean)
	}
	// DYRS accelerates the cold jobs the cache cannot.
	if rows[HCDYRS].ColdMean >= base.ColdMean*0.9 {
		t.Errorf("DYRS did not help cold jobs: %.1f vs %.1f", rows[HCDYRS].ColdMean, base.ColdMean)
	}
	if out := rep.String(); !strings.Contains(out, "cold") {
		t.Error("rendering broken")
	}
}

func TestIterativeShape(t *testing.T) {
	t.Parallel()
	rep, err := RunIterative(7)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[Policy]IterativeRow{}
	for _, r := range rep.Rows {
		rows[r.Policy] = r
	}
	// §I: the cold first iteration dominates under HDFS (paper: 15x for
	// logistic regression); accept anything clearly dominated.
	if f := rows[HDFS].FirstOverSteady(); f < 5 {
		t.Errorf("HDFS first/steady = %.1fx, want >5x", f)
	}
	// DYRS shrinks the first-iteration penalty substantially.
	if rows[DYRS].Iterations[0] >= rows[HDFS].Iterations[0]*0.8 {
		t.Errorf("DYRS iter1 %.1fs not clearly below HDFS %.1fs",
			rows[DYRS].Iterations[0], rows[HDFS].Iterations[0])
	}
	// Steady-state iterations are unaffected by the policy.
	if d := rows[DYRS].Iterations[2] / rows[HDFS].Iterations[2]; d < 0.9 || d > 1.1 {
		t.Errorf("steady iterations differ between policies: %.2f", d)
	}
	if out := rep.String(); !strings.Contains(out, "Iterative") {
		t.Error("rendering broken")
	}
}

func TestRackedClusterStillBenefitsFromDYRS(t *testing.T) {
	t.Parallel()
	// DYRS on a 2-rack cluster with rack-aware placement still delivers
	// a clear speedup. The core is non-blocking; core contention is
	// covered by internal/dfs's rack tests and the scale experiment.
	run := func(policy Policy) float64 {
		opt := DefaultOptions(9)
		opt.Workers = 8
		opt.Racks = 2
		env := NewEnv(policy, opt)
		if err := env.WarmupEstimates(); err != nil {
			t.Fatal(err)
		}
		if err := env.CreateInput("in", 10*sim.GB); err != nil {
			t.Fatal(err)
		}
		spec := workload.SortSpec("in", 8)
		spec.ExtraLeadTime = 20 * time.Second
		j, err := env.RunJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j.MapPhase().Seconds()
	}
	hdfs := run(HDFS)
	dyrs := run(DYRS)
	if dyrs >= hdfs*0.8 {
		t.Errorf("racked DYRS map %.1fs not clearly below HDFS %.1fs", dyrs, hdfs)
	}
}
