package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every workload in both reports and every
// end-to-end metric, whether the new report is better, the same, worse
// or unresolved against the old one, and flags output digests that
// differ. A workload whose new run is incorrect, or fails a larger share
// of its operations than the old run, is worse whatever its times. It
// reports whether anything got worse or any digest differs.
func compareFiles(oldPath, newPath string, w io.Writer) (bool, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	printHeader := func(label string, h header) {
		fmt.Fprintf(w, "%s: git=%s nproc=%d cpu=%q GOMAXPROCS=%d seed=%d size=%s\n",
			label, h.GitSHA, h.NProc, h.CPU, h.GOMAXPROCS, h.Seed, h.Size)
	}
	printHeader("old", oldRep.Header)
	printHeader("new", newRep.Header)
	bad := false
	for _, nw := range newRep.Workloads {
		var ow *workloadResult
		for _, o := range oldRep.Workloads {
			if o.Name == nw.Name {
				ow = o
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%-8s not in %s\n", nw.Name, oldPath)
			continue
		}
		if !nw.Correct {
			fmt.Fprintf(w, "%-8s WORSE: new run is incorrect: %v\n", nw.Name, nw.Errors)
			bad = true
		}
		if of, nf := failedShare(ow), failedShare(nw); nf > of {
			fmt.Fprintf(w, "%-8s WORSE: failed %d/%d %ss, was %d/%d\n",
				nw.Name, nw.Failed, nw.Attempted, nw.Op, ow.Failed, ow.Attempted)
			bad = true
		}
		if ow.Digest != nw.Digest {
			fmt.Fprintf(w, "%-8s DIGEST DIFFERS: %s -> %s\n", nw.Name, ow.Digest, nw.Digest)
			bad = true
		}
		for _, def := range e2eMetrics {
			o, n := ow.Metrics[def.Name], nw.Metrics[def.Name]
			v := verdict(def, o.Values, n.Values)
			change := "    n/a "
			if o.Median != 0 {
				change = fmt.Sprintf("%+7.2f%%", 100*(n.Median-o.Median)/o.Median)
			}
			fmt.Fprintf(w, "%-8s %-10s %12.6g -> %12.6g %-6s %s  spread %5.2f%% / %5.2f%%  bound %s  %s\n",
				nw.Name, def.Name, o.Median, n.Median, def.Unit, change,
				100*o.Spread, 100*n.Spread, boundText(def), v)
			if v == "worse" {
				bad = true
			}
		}
	}
	return bad, nil
}

// failedShare is the share of a workload's attempted operations that
// failed; a workload that attempted none counts as failing them all.
func failedShare(res *workloadResult) float64 {
	if res.Attempted == 0 {
		return 1
	}
	return float64(res.Failed) / float64(res.Attempted)
}

func boundText(def metricDef) string {
	switch {
	case def.Name == okMetric:
		return "any decrease"
	case absFloor[def.Name] > 0:
		return fmt.Sprintf("%.0f%% or %g %s", 100*def.Bound, absFloor[def.Name], def.Unit)
	}
	return fmt.Sprintf("%.0f%%", 100*def.Bound)
}

// verdict classifies one metric. ok_frac is worse on any decrease of its
// mean over the reps and better on any increase, since one failed rep in
// a minority does not move its median. For the others, a side whose
// IQR exceeds the tolerance leaves the comparison unresolved unless every
// rep of one side beats every rep of the other; otherwise the change in
// medians decides against the tolerance.
func verdict(def metricDef, old, cur []float64) string {
	if len(old) == 0 || len(cur) == 0 {
		return "unresolved"
	}
	sign := 1.0 // sign*(a-b) > 0: a is worse than b
	best := func(s summary) float64 { return s.Min }
	worst := func(s summary) float64 { return s.Max }
	if def.Better == "higher" {
		sign = -1
		best, worst = worst, best
	}
	if def.Name == okMetric {
		switch d := sign * (mean(cur) - mean(old)); {
		case d > 0:
			return "worse"
		case d < 0:
			return "better"
		}
		return "same"
	}
	o, c := summarize(def, old), summarize(def, cur)
	if o.Unstable || c.Unstable {
		switch {
		case sign*(worst(c)-best(o)) < 0:
			return "better"
		case sign*(best(c)-worst(o)) > 0:
			return "worse"
		}
		return "unresolved"
	}
	change, tol := sign*(c.Median-o.Median), tolerance(def, o.Median)
	switch {
	case change > tol:
		return "worse"
	case change < -tol:
		return "better"
	}
	return "same"
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
