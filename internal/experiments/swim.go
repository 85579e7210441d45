package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// SWIMRun holds everything measured from one replay of the SWIM workload
// under one policy: per-job and per-mapper durations plus memory-usage
// samples (the inputs to Table I and Figs. 5-7).
type SWIMRun struct {
	Policy Policy
	// Jobs are the completed jobs in completion order.
	Jobs []*compute.Job
	// MapperDurations collects every map task's runtime in seconds.
	MapperDurations *metrics.Sample
	// MemSamples collects per-server buffered bytes sampled once a
	// second during the run (Fig. 7a for DYRS).
	MemSamples *metrics.Sample
	// PeakMemPerServer is the maximum buffered bytes observed on any
	// single server.
	PeakMemPerServer sim.Bytes
	// BytesMigrated totals migration traffic (0 for HDFS/RAM).
	BytesMigrated sim.Bytes
	// HypotheticalMemSamples is populated on the RAM run: the per-server
	// memory a hypothetical instant-migration scheme would have used
	// (Fig. 7b), derived from job submission and block read times.
	HypotheticalMemSamples *metrics.Sample
}

// MeanJobSeconds reports the average job duration — Table I's headline.
func (r *SWIMRun) MeanJobSeconds() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range r.Jobs {
		sum += j.Duration().Seconds()
	}
	return sum / float64(len(r.Jobs))
}

// SizeBin classifies a job by input size, following the trace's
// heavy-tailed shape: small jobs read under 64 MB, large jobs over 1 GB.
func SizeBin(input sim.Bytes) string {
	switch {
	case input < 64*sim.MB:
		return "small"
	case input <= sim.GB:
		return "medium"
	default:
		return "large"
	}
}

// SizeBins lists bin names in presentation order.
var SizeBins = []string{"small", "medium", "large"}

// MeanJobSecondsByBin reports average job duration per size bin (Fig. 5).
func (r *SWIMRun) MeanJobSecondsByBin() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, j := range r.Jobs {
		b := SizeBin(j.InputBytes)
		sums[b] += j.Duration().Seconds()
		counts[b]++
	}
	out := map[string]float64{}
	for b, s := range sums {
		out[b] = s / float64(counts[b])
	}
	return out
}

// SWIMReport bundles the four policy runs.
type SWIMReport struct {
	Runs map[Policy]*SWIMRun
}

// TableI renders the Table I comparison.
func (rep SWIMReport) TableI() string {
	base := rep.Runs[HDFS].MeanJobSeconds()
	t := NewTable("Table I — Average job duration and speedup across the SWIM workload",
		"config", "avg duration (s)", "speedup w.r.t HDFS")
	for _, p := range AllPolicies {
		r := rep.Runs[p]
		if r == nil {
			continue
		}
		mean := r.MeanJobSeconds()
		sp := ""
		if p != HDFS {
			sp = Pct(metrics.Speedup(base, mean))
		}
		t.AddRow(string(p), fmt.Sprintf("%.1f", mean), sp)
	}
	return t.String()
}

// Fig5 renders job durations binned by input size.
func (rep SWIMReport) Fig5() string {
	base := rep.Runs[HDFS].MeanJobSecondsByBin()
	t := NewTable("Fig 5 — Job duration by input size bin (mean seconds; DYRS speedup vs HDFS)",
		"bin", "HDFS", "RAM", "Ignem", "DYRS", "DYRS speedup")
	for _, bin := range SizeBins {
		row := []any{bin}
		for _, p := range AllPolicies {
			row = append(row, fmt.Sprintf("%.1f", rep.Runs[p].MeanJobSecondsByBin()[bin]))
		}
		row = append(row, Pct(metrics.Speedup(base[bin], rep.Runs[DYRS].MeanJobSecondsByBin()[bin])))
		t.AddRow(row...)
	}
	return t.String()
}

// Fig6 renders mapper-task duration statistics.
func (rep SWIMReport) Fig6() string {
	t := NewTable("Fig 6 — Map task durations (seconds)",
		"config", "mean", "p50", "p90", "p99", "speedup vs HDFS")
	base := rep.Runs[HDFS].MapperDurations.Mean()
	for _, p := range AllPolicies {
		d := rep.Runs[p].MapperDurations
		sp := ""
		if p != HDFS {
			sp = fmt.Sprintf("%.2fx", base/d.Mean())
		}
		t.AddRow(string(p), d.Mean(), d.Percentile(50), d.Percentile(90), d.Percentile(99), sp)
	}
	return t.String()
}

// Fig7 renders the memory-footprint comparison between DYRS and the
// hypothetical instant-migration scheme.
func (rep SWIMReport) Fig7() string {
	dyrs := rep.Runs[DYRS]
	hyp := rep.Runs[RAM].HypotheticalMemSamples
	t := NewTable("Fig 7 — Per-server memory used for migrated blocks (GB)",
		"scheme", "mean", "p90", "p99", "max")
	toGB := func(v float64) string { return fmt.Sprintf("%.2f", v/float64(sim.GB)) }
	d := dyrs.MemSamples
	t.AddRow("DYRS", toGB(d.Mean()), toGB(d.Percentile(90)), toGB(d.Percentile(99)), toGB(d.Max()))
	t.AddRow("hypothetical", toGB(hyp.Mean()), toGB(hyp.Percentile(90)), toGB(hyp.Percentile(99)), toGB(hyp.Max()))
	// The paper's aggregate claim: DYRS migrates ~45% as much data as the
	// hypothetical scheme yet achieves ~72% of its speedup.
	base := rep.Runs[HDFS].MeanJobSeconds()
	ramSpeedup := metrics.Speedup(base, rep.Runs[RAM].MeanJobSeconds())
	dyrsSpeedup := metrics.Speedup(base, rep.Runs[DYRS].MeanJobSeconds())
	hypBytes := rep.Runs[RAM].BytesMigrated
	frac := 0.0
	if hypBytes > 0 {
		frac = float64(dyrs.BytesMigrated) / float64(hypBytes)
	}
	fracSpeedup := 0.0
	if ramSpeedup != 0 {
		fracSpeedup = dyrsSpeedup / ramSpeedup
	}
	return t.String() + fmt.Sprintf(
		"DYRS migrated %.0f%% of the hypothetical scheme's bytes and achieved %.0f%% of its speedup\n",
		frac*100, fracSpeedup*100)
}

// RunSWIMOnce replays the SWIM workload under one policy.
func RunSWIMOnce(policy Policy, seed int64) (*SWIMRun, error) {
	env := NewEnv(policy, DefaultOptions(seed))
	env.SlowNodeInterference(0)
	if err := env.WarmupEstimates(); err != nil {
		return nil, err
	}

	jobs := workload.GenerateSWIM(rand.New(rand.NewSource(seed)), workload.DefaultSWIMConfig())
	run := &SWIMRun{
		Policy:          policy,
		MapperDurations: metrics.NewSample(),
		MemSamples:      metrics.NewSample(),
	}

	// Create all inputs up front (the trace's files pre-exist on disk).
	for _, j := range jobs {
		if err := env.CreateInput(j.FileName(), j.InputSize); err != nil {
			return nil, err
		}
	}

	// Under the RAM policy, reconstruct the hypothetical instant-
	// migration scheme's memory usage: a block occupies memory on its
	// pinned server from job submission until its read completes.
	var windows []blockWindow
	windowIdx := map[int]int{} // block id -> windows index
	if policy == RAM {
		for _, j := range jobs {
			ids, err := env.FS.FileBlockIDs([]string{j.FileName()})
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				windowIdx[int(id)] = len(windows)
				windows = append(windows, blockWindow{server: env.FS.Replicas(id)[0], size: env.FS.BlockSize(id)})
			}
		}
	}

	replayStart := env.Eng.Now()
	for _, wj := range jobs {
		spec := wj.Spec(true)
		env.FW.SubmitAt(replayStart.Add(wj.Arrival), spec, func(j *compute.Job, err error) {
			if err == nil && policy == RAM {
				for _, id := range env.FS.SortedBlockIDs(spec.InputFiles) {
					if wi, ok := windowIdx[int(id)]; ok {
						windows[wi].start = j.Submitted
					}
				}
			}
		})
	}
	// Sample per-server migrated-memory usage once a second.
	sim.NewTicker(env.Eng, time.Second, func() {
		for _, n := range env.Cl.Nodes() {
			used := env.FS.DataNode(n.ID).MemUsed()
			run.MemSamples.Add(float64(used))
			if used > run.PeakMemPerServer {
				run.PeakMemPerServer = used
			}
		}
	})

	if err := env.WaitJobs(len(jobs), 4*Hour); err != nil {
		return nil, err
	}
	run.Jobs = append(run.Jobs, env.FW.Results()...)

	for _, j := range run.Jobs {
		for _, tr := range j.Tasks {
			run.MapperDurations.Add(tr.Duration().Seconds())
		}
		if policy == RAM {
			for _, tr := range j.Tasks {
				if wi, ok := windowIdx[int(tr.Block)]; ok {
					windows[wi].end = tr.ReadDone
				}
			}
		}
	}
	if env.Coord != nil {
		run.BytesMigrated = env.Coord.Stats().BytesMigrated
	}

	if policy == RAM {
		run.HypotheticalMemSamples = hypotheticalMemory(windows, env.Cl.Size(), replayStart, env.Eng.Now())
		var total sim.Bytes
		for _, w := range windows {
			total += w.size
		}
		run.BytesMigrated = total
	}
	return run, nil
}

// blockWindow is one block's residency interval under the hypothetical
// instant-migration scheme: pinned at job submission, released when read.
type blockWindow struct {
	server cluster.NodeID
	size   sim.Bytes
	start  sim.Time
	end    sim.Time
}

// hypotheticalMemory computes per-server memory usage over time for the
// instant-migrate / instant-evict scheme of Fig. 7b: each block occupies
// its server from job submission to read completion. Usage is sampled
// once a second per server.
func hypotheticalMemory(windows []blockWindow, servers int, from, to sim.Time) *metrics.Sample {
	out := metrics.NewSample()
	if to <= from {
		return out
	}
	seconds := int(to.Sub(from) / time.Second)
	if seconds <= 0 {
		seconds = 1
	}
	usage := make([][]float64, servers)
	for s := range usage {
		usage[s] = make([]float64, seconds)
	}
	for _, w := range windows {
		if w.end <= w.start {
			continue // never read (job failed) — instant scheme evicts at job end; skip
		}
		s0 := int(w.start.Sub(from) / time.Second)
		s1 := int(w.end.Sub(from) / time.Second)
		for s := s0; s <= s1 && s < seconds; s++ {
			if s >= 0 {
				usage[int(w.server)][s] += float64(w.size)
			}
		}
	}
	for s := range usage {
		for _, v := range usage[s] {
			out.Add(v)
		}
	}
	return out
}

// RunSWIM replays the workload under all four configurations.
func RunSWIM(seed int64) (SWIMReport, error) {
	rep := SWIMReport{Runs: map[Policy]*SWIMRun{}}
	for _, p := range AllPolicies {
		r, err := RunSWIMOnce(p, seed)
		if err != nil {
			return rep, fmt.Errorf("swim %s: %w", p, err)
		}
		rep.Runs[p] = r
	}
	return rep, nil
}

// swimExperiment registers Table I and Figs. 5-7.
func swimExperiment() Experiment {
	return Experiment{
		Name:    "swim",
		Aliases: []string{"table1", "fig5", "fig6", "fig7"},
		Summary: "Table I, Figs. 5-7: 200-job trace-based workload",
		Run:     func(seed int64) (any, error) { return RunSWIM(seed) },
		Render: func(result any, sel Selection) []string {
			r := result.(SWIMReport)
			all := sel.wantsAll("swim")
			var out []string
			if all || sel.Has("table1") {
				out = append(out, r.TableI())
			}
			if all || sel.Has("fig5") {
				out = append(out, r.Fig5())
			}
			if all || sel.Has("fig6") {
				out = append(out, r.Fig6())
			}
			if all || sel.Has("fig7") {
				out = append(out, r.Fig7())
			}
			return out
		},
		Merge: func(rep *FullReport, result any) {
			r := result.(SWIMReport)
			rep.SWIM.MeanJobSeconds = map[Policy]float64{}
			rep.SWIM.BinMeans = map[Policy]map[string]float64{}
			rep.SWIM.MapperMean = map[Policy]float64{}
			for p, run := range r.Runs {
				rep.SWIM.MeanJobSeconds[p] = run.MeanJobSeconds()
				rep.SWIM.BinMeans[p] = run.MeanJobSecondsByBin()
				rep.SWIM.MapperMean[p] = run.MapperDurations.Mean()
			}
			rep.SWIM.DYRSBytes = r.Runs[DYRS].BytesMigrated
			rep.SWIM.HypBytes = r.Runs[RAM].BytesMigrated
		},
	}
}
