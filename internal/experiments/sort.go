package experiments

import (
	"fmt"
	"strings"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// Fig8Report holds per-DataNode read counts for the replica-selection
// comparison (Fig. 8): how each policy distributes block reads when the
// cluster is homogeneous vs when one node is slow.
type Fig8Report struct {
	// Reads[setup][policy] is the per-node count of disk reads served
	// during the sort (migration reads plus task disk reads).
	Reads map[string]map[Policy][]int
	// SlowNode is the index of the handicapped node in the "slow-node"
	// setup.
	SlowNode int
}

// Fig8Setups lists the two cluster setups.
var Fig8Setups = []string{"homogeneous", "slow-node"}

// Fig8Policies lists the compared policies in presentation order.
var Fig8Policies = []Policy{HDFS, Ignem, DYRS}

// RunFig8 measures the distribution of reads across DataNodes for a 30 GB
// Sort under each policy, with and without a handicapped node.
func RunFig8(seed int64) (Fig8Report, error) {
	rep := Fig8Report{Reads: map[string]map[Policy][]int{}, SlowNode: 0}
	for _, setup := range Fig8Setups {
		rep.Reads[setup] = map[Policy][]int{}
		for _, p := range Fig8Policies {
			env := NewEnv(p, DefaultOptions(seed))
			if setup == "slow-node" {
				env.SlowNodeInterference(cluster.NodeID(rep.SlowNode))
			}
			err := env.WarmupEstimates()
			// Snapshot read counters after warmup so only the sort's
			// reads (tasks + migrations) are counted.
			baseline := env.FS.ReadCounts()
			if err == nil {
				_, err = env.RunSort(30*sim.GB, 10*time.Second)
			}
			if err != nil {
				return rep, fmt.Errorf("fig8 %s/%s: %w", setup, p, err)
			}
			counts := env.FS.ReadCounts()
			for i := range counts {
				counts[i] -= baseline[i]
			}
			rep.Reads[setup][p] = counts
		}
	}
	return rep, nil
}

// String renders the Fig. 8 distributions.
func (r Fig8Report) String() string {
	var b strings.Builder
	for _, setup := range Fig8Setups {
		t := NewTable(fmt.Sprintf("Fig 8 — Reads per DataNode, %s cluster (node %d slow in slow-node setup)",
			setup, r.SlowNode), "policy", "per-node disk reads", "slow-node share")
		for _, p := range Fig8Policies {
			counts := r.Reads[setup][p]
			total := 0
			for _, c := range counts {
				total += c
			}
			share := 0.0
			if total > 0 {
				share = float64(counts[r.SlowNode]) / float64(total)
			}
			t.AddRow(string(p), fmt.Sprintf("%v", counts), fmt.Sprintf("%.0f%%", share*100))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TableIIRow is one interference pattern's sort runtime (Table II), plus
// the migration-time-estimate trajectories behind the matching Fig. 9
// panel.
type TableIIRow struct {
	Pattern string  `json:"pattern"`
	Figure  string  `json:"figure"`
	Runtime float64 `json:"runtime_seconds"`
	// EstimateNode1/2 are the per-heartbeat estimates (seconds to
	// migrate one block) for the two interfered nodes.
	EstimateNode1 []metrics.TimePoint `json:"estimate_node1"`
	EstimateNode2 []metrics.TimePoint `json:"estimate_node2"`
}

// TableIIReport bundles all five patterns.
type TableIIReport struct {
	Rows []TableIIRow
	// SortGB is the sort input size used.
	SortGB float64
}

// RunTableII runs the Sort job under each of Table II's interference
// patterns with DYRS, recording runtimes and estimate trajectories.
func RunTableII(seed int64) (TableIIReport, error) {
	rep := TableIIReport{SortGB: 30}
	for _, pat := range workload.TableIIPatterns(1, 2) {
		env := NewEnv(DYRS, DefaultOptions(seed))
		pat.Start(env.Cl)
		err := env.WarmupEstimates()
		var j *compute.Job
		if err == nil {
			j, err = env.RunSort(30*sim.GB, 10*time.Second)
		}
		if err != nil {
			return rep, fmt.Errorf("tableII %q: %w", pat.Name, err)
		}
		rep.Rows = append(rep.Rows, TableIIRow{
			Pattern:       pat.Name,
			Figure:        pat.Figure,
			Runtime:       j.Duration().Seconds(),
			EstimateNode1: env.Coord.EstimateSeries(1).Downsample(40),
			EstimateNode2: env.Coord.EstimateSeries(2).Downsample(40),
		})
	}
	return rep, nil
}

// String renders Table II.
func (r TableIIReport) String() string {
	t := NewTable(fmt.Sprintf("Table II — DYRS %vGB sort runtime under interference patterns", r.SortGB),
		"interference pattern", "figure", "runtime (s)")
	for _, row := range r.Rows {
		t.AddRow(row.Pattern, row.Figure, fmt.Sprintf("%.0f", row.Runtime))
	}
	return t.String()
}

// Fig9String renders the estimate trajectories as compact series.
func (r TableIIReport) Fig9String() string {
	var b strings.Builder
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "Fig %s — %s\n", row.Figure, row.Pattern)
		writeSeries := func(name string, pts []metrics.TimePoint) {
			fmt.Fprintf(&b, "  %s est(s):", name)
			for _, p := range pts {
				fmt.Fprintf(&b, " %.1f", p.V)
			}
			b.WriteByte('\n')
		}
		writeSeries("node1", row.EstimateNode1)
		writeSeries("node2", row.EstimateNode2)
	}
	return b.String()
}

// MigEvent is one migration completion (Fig. 10 timeline).
type MigEvent struct {
	Block dfs.BlockID
	Node  cluster.NodeID
	At    sim.Time
}

// Fig10Report compares the end-of-migration timelines of DYRS and the
// naive balancer for a 10 GB sort with one slow node.
type Fig10Report struct {
	SlowNode cluster.NodeID
	// Last30[policy] holds the last 30 migration completions, earliest
	// first.
	Last30 map[Policy][]MigEvent
}

// RunFig10 records migration completion timelines under DYRS and Naive.
func RunFig10(seed int64) (Fig10Report, error) {
	rep := Fig10Report{SlowNode: 0, Last30: map[Policy][]MigEvent{}}
	for _, p := range []Policy{Naive, DYRS} {
		var events []MigEvent
		env := NewEnv(p, DefaultOptions(seed))
		env.SlowNodeInterference(rep.SlowNode)
		err := env.WarmupEstimates()
		if err == nil {
			env.Coord.OnMigrated(func(b dfs.BlockID, n cluster.NodeID, at sim.Time) {
				events = append(events, MigEvent{Block: b, Node: n, At: at})
			})
			// Enough lead to migrate the full input, as in the paper's
			// straggler study: the interesting part is the tail of the
			// migration, not the job itself.
			_, err = env.RunSort(10*sim.GB, 2*time.Minute)
		}
		if err != nil {
			return rep, fmt.Errorf("fig10 %s: %w", p, err)
		}
		if len(events) > 30 {
			events = events[len(events)-30:]
		}
		rep.Last30[p] = events
	}
	return rep, nil
}

// SlowTail reports, for a policy, how many of the last n migrations ran
// on the slow node and the gap between the last fast-node completion and
// the overall last completion (the straggler overhang).
func (r Fig10Report) SlowTail(p Policy, n int) (slowCount int, overhangSeconds float64) {
	events := r.Last30[p]
	if len(events) == 0 {
		return 0, 0
	}
	if n > len(events) {
		n = len(events)
	}
	tail := events[len(events)-n:]
	last := tail[len(tail)-1].At
	var lastFast sim.Time
	for _, ev := range tail {
		if ev.Node == r.SlowNode {
			slowCount++
		} else if ev.At > lastFast {
			lastFast = ev.At
		}
	}
	return slowCount, last.Sub(lastFast).Seconds()
}

// String renders the Fig. 10 comparison.
func (r Fig10Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — Last 30 migration completions (slow node = %v)\n", r.SlowNode)
	for _, p := range []Policy{Naive, DYRS} {
		events := r.Last30[p]
		if len(events) == 0 {
			continue
		}
		end := events[len(events)-1].At
		fmt.Fprintf(&b, "%s:", p)
		for _, ev := range events {
			mark := ""
			if ev.Node == r.SlowNode {
				mark = "*"
			}
			fmt.Fprintf(&b, " %v%s@%.1fs", ev.Node, mark, end.Sub(ev.At).Seconds())
		}
		slow, overhang := r.SlowTail(p, 10)
		fmt.Fprintf(&b, "\n  (slow-node completions in last 10: %d; straggler overhang %.1fs)\n", slow, overhang)
	}
	return b.String()
}

// Fig11Row is one (input size, extra lead-time) cell of the Fig. 11
// sweep, for HDFS and DYRS.
type Fig11Row struct {
	SizeGB    float64 `json:"size_gb"`
	ExtraLead float64 `json:"extra_lead_seconds"`
	// MapSeconds and TotalSeconds per policy; Total includes lead-time.
	MapSeconds   map[Policy]float64 `json:"map_seconds"`
	TotalSeconds map[Policy]float64 `json:"total_seconds"`
}

// Fig11Report is the full sweep.
type Fig11Report struct {
	Rows []Fig11Row
}

// RunFig11 sweeps sort input sizes and artificial lead-times (§V-F4).
func RunFig11(seed int64) (Fig11Report, error) {
	var rep Fig11Report
	sizes := []sim.Bytes{2 * sim.GB, 5 * sim.GB, 10 * sim.GB, 20 * sim.GB}
	leads := []sim.Duration{0, 10 * time.Second, 20 * time.Second, 40 * time.Second}
	for _, size := range sizes {
		for _, lead := range leads {
			row := Fig11Row{
				SizeGB:       float64(size) / float64(sim.GB),
				ExtraLead:    lead.Seconds(),
				MapSeconds:   map[Policy]float64{},
				TotalSeconds: map[Policy]float64{},
			}
			for _, p := range []Policy{HDFS, DYRS} {
				env := NewEnv(p, DefaultOptions(seed))
				env.SlowNodeInterference(0)
				err := env.WarmupEstimates()
				var j *compute.Job
				if err == nil {
					j, err = env.RunSort(size, lead)
				}
				if err != nil {
					return rep, fmt.Errorf("fig11 %vGB/%v/%s: %w", row.SizeGB, lead, p, err)
				}
				row.MapSeconds[p] = j.MapPhase().Seconds()
				row.TotalSeconds[p] = j.Duration().Seconds()
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// String renders the Fig. 11 sweep.
func (r Fig11Report) String() string {
	t := NewTable("Fig 11 — Sort: map-phase and end-to-end duration vs input size and inserted lead-time",
		"size", "extra lead", "map HDFS", "map DYRS", "map speedup", "e2e HDFS", "e2e DYRS")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%.0fGB", row.SizeGB),
			fmt.Sprintf("%.0fs", row.ExtraLead),
			fmt.Sprintf("%.1f", row.MapSeconds[HDFS]),
			fmt.Sprintf("%.1f", row.MapSeconds[DYRS]),
			Pct(metrics.Speedup(row.MapSeconds[HDFS], row.MapSeconds[DYRS])),
			fmt.Sprintf("%.1f", row.TotalSeconds[HDFS]),
			fmt.Sprintf("%.1f", row.TotalSeconds[DYRS]),
		)
	}
	return t.String()
}

// fig8Experiment registers the per-DataNode read distribution study.
func fig8Experiment() Experiment {
	return Experiment{
		Name:    "fig8",
		Summary: "Fig. 8: per-DataNode read distribution, homogeneous vs slow-node",
		Run:     func(seed int64) (any, error) { return RunFig8(seed) },
		Merge: func(rep *FullReport, result any) {
			r := result.(Fig8Report)
			rep.Fig8.SlowNode = r.SlowNode
			rep.Fig8.Reads = r.Reads
		},
	}
}

// tableIIExperiment registers the interference patterns (Table II, Fig. 9).
func tableIIExperiment() Experiment {
	return Experiment{
		Name:    "table2",
		Aliases: []string{"fig9"},
		Summary: "Table II, Fig. 9: sort runtime and estimates under interference",
		Run:     func(seed int64) (any, error) { return RunTableII(seed) },
		Render: func(result any, sel Selection) []string {
			r := result.(TableIIReport)
			all := sel.wantsAll("table2")
			var out []string
			if all || sel.Has("table2") {
				out = append(out, r.String())
			}
			if all || sel.Has("fig9") {
				out = append(out, r.Fig9String())
			}
			return out
		},
		Merge: func(rep *FullReport, result any) {
			rep.TableII = result.(TableIIReport).Rows
		},
	}
}

// fig10Experiment registers the end-of-migration straggler timelines.
func fig10Experiment() Experiment {
	return Experiment{
		Name:    "fig10",
		Summary: "Fig. 10: end-of-migration straggler timelines, DYRS vs naive",
		Run:     func(seed int64) (any, error) { return RunFig10(seed) },
		Merge: func(rep *FullReport, result any) {
			r := result.(Fig10Report)
			rep.Fig10.NaiveSlowTail, rep.Fig10.NaiveOverhangSec = r.SlowTail(Naive, 10)
			rep.Fig10.DYRSSlowTail, rep.Fig10.DYRSOverhangSec = r.SlowTail(DYRS, 10)
		},
	}
}

// fig11Experiment registers the size x lead-time sort sweep.
func fig11Experiment() Experiment {
	return Experiment{
		Name:    "fig11",
		Summary: "Fig. 11: sort sweep over input size and inserted lead-time",
		Run:     func(seed int64) (any, error) { return RunFig11(seed) },
		Merge: func(rep *FullReport, result any) {
			rep.Fig11 = result.(Fig11Report).Rows
		},
	}
}
