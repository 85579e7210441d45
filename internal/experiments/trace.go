package experiments

import (
	"fmt"
	"strings"

	"dyrs/internal/gtrace"
)

// TraceReport carries the Google-trace motivation analyses (Figs. 1-3).
type TraceReport struct {
	Trace *gtrace.Trace
}

// RunTrace synthesizes the trace and runs the paper's §II analyses.
func RunTrace(seed int64) TraceReport {
	cfg := gtrace.DefaultConfig()
	cfg.Seed = seed
	return TraceReport{Trace: gtrace.Generate(cfg)}
}

// traceExperiment registers Figs. 1-3.
func traceExperiment() Experiment {
	return Experiment{
		Name:    "trace",
		Aliases: []string{"fig1", "fig2", "fig3"},
		Summary: "Figs. 1-3: Google-trace motivation analyses",
		Run:     func(seed int64) (any, error) { return RunTrace(seed), nil },
		Render: func(result any, sel Selection) []string {
			r := result.(TraceReport)
			all := sel.wantsAll("trace")
			var out []string
			if all || sel.Has("fig1") {
				out = append(out, r.Fig1())
			}
			if all || sel.Has("fig2") {
				out = append(out, r.Fig2())
			}
			if all || sel.Has("fig3") {
				out = append(out, r.Fig3())
			}
			return out
		},
		Merge: func(rep *FullReport, result any) {
			r := result.(TraceReport)
			rep.Trace.MeanUtilization = r.Trace.MeanUtilization()
			rep.Trace.FractionUnder4Pct = r.Trace.UtilizationSamples().FractionBelow(0.04)
			rep.Trace.FractionLeadCovers = r.Trace.FractionLeadCoversRead()
			rep.Trace.MeanLeadSeconds = r.Trace.MeanLeadSeconds()
		},
	}
}

// Fig1 renders per-node disk utilization over the trace's span for three
// nodes chosen like the paper's: the busiest node, a mid-load node, and a
// light one.
func (r TraceReport) Fig1() string {
	ranked := r.Trace.RankedServers()
	means := r.Trace.ServerMeans()
	picks := []int{ranked[0], ranked[len(ranked)/3], ranked[2*len(ranked)/3]}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1 — Disk utilization%s for three servers (5-min samples, downsampled)\n", r.span(" over "))
	for i, s := range picks {
		ts := r.Trace.UtilizationSeries(s)
		fmt.Fprintf(&b, "node%d (mean %.1f%%):", i+1, means[s]*100)
		for _, p := range ts.Downsample(24) {
			fmt.Fprintf(&b, " %4.1f", p.V*100)
		}
		b.WriteString("  (%)\n")
	}
	r1 := means[picks[0]] / means[picks[1]]
	r2 := means[picks[0]] / means[picks[2]]
	fmt.Fprintf(&b, "heterogeneity: node1 is %.1fx node2 and %.1fx node3 on average\n", r1, r2)
	return b.String()
}

// Fig2 renders the lead-time vs read-time analysis.
func (r TraceReport) Fig2() string {
	var b strings.Builder
	b.WriteString("Fig 2 — PDF of lead-time/read-time ratio (log10 bins)\n")
	h := r.Trace.RatioPDF(12)
	pdf := h.PDF()
	for i, p := range pdf {
		fmt.Fprintf(&b, "  log10(ratio) %+4.1f: %5.1f%%\n", h.BinCenter(i), p*100)
	}
	fmt.Fprintf(&b, "jobs with lead-time > read-time: %.0f%% (paper: 81%%)\n",
		r.Trace.FractionLeadCoversRead()*100)
	fmt.Fprintf(&b, "mean lead-time: %.1fs (paper: 8.8s)\n", r.Trace.MeanLeadSeconds())
	return b.String()
}

// Fig3 renders the utilization CDF.
func (r TraceReport) Fig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 — CDF of disk utilization samples, %d servers%s\n", len(r.Trace.Util), r.span(" x "))
	util := r.Trace.UtilizationSamples()
	for _, u := range []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32} {
		fmt.Fprintf(&b, "  util <= %4.1f%%: %5.1f%%\n", u*100, util.FractionBelow(u)*100)
	}
	fmt.Fprintf(&b, "mean utilization: %.1f%% (paper: ~3.1%%); samples under 4%%: %.0f%% (paper: 80%%)\n",
		r.Trace.MeanUtilization()*100, util.FractionBelow(0.04)*100)
	return b.String()
}

// span renders the trace's span in hours after sep, as Figs. 1 and 3
// name it (" over 24h"), or "" for a file whose Cfg is empty and so
// does not say.
func (r TraceReport) span(sep string) string {
	if d := r.Trace.Cfg.Duration; d > 0 {
		return fmt.Sprintf("%s%gh", sep, d.Hours())
	}
	return ""
}
