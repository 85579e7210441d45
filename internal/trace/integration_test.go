package trace_test

import (
	"testing"
	"time"

	"dyrs"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// runTracedSort runs a small migrating Sort and returns the tracer.
func runTracedSort(t *testing.T) *trace.Tracer {
	t.Helper()
	opt := dyrs.DefaultOptions(1)
	opt.Trace = true
	env := dyrs.NewEnv(dyrs.PolicyDYRS, opt)
	defer env.Close()
	if err := env.CreateInput("input", dyrs.GB); err != nil {
		t.Fatal(err)
	}
	spec := env.Prepare(dyrs.SortSpec("input", 4, true))
	spec.ExtraLeadTime = 5 * time.Second
	j, err := env.FW.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.WaitJob(j, time.Hour); err != nil {
		t.Fatal(err)
	}
	tr := env.Tracer()
	if !tr.Enabled() {
		t.Fatal("Options.Trace did not attach a tracer")
	}
	return tr
}

// The headline semantic guarantee: a migration's full lifecycle shows up
// as linked spans carrying enough attributes to recompute the achieved
// lead-time from the trace alone.
func TestMigrationLifecycleSpans(t *testing.T) {
	tr := runTracedSort(t)
	spans := tr.Spans()

	byID := map[int]*trace.Span{}
	for i := range spans {
		byID[spans[i].ID()] = &spans[i]
	}

	// Find a pinned migration with a completed transfer child.
	var pinned *trace.Span
	transfers := map[int]*trace.Span{} // parent ID -> transfer child
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Cat() == "migration" && sp.Name() == "migrate" && sp.Attr("outcome") == "pinned":
			if pinned == nil {
				pinned = sp
			}
		case sp.Cat() == "migration" && sp.Name() == "transfer":
			transfers[sp.Parent()] = sp
		}
	}
	if pinned == nil {
		t.Fatal("no pinned migration span in trace")
	}
	if pinned.Node() != trace.NodeMaster {
		t.Errorf("migrate span on node %d, want master", pinned.Node())
	}
	for _, key := range []string{"job", "block", "size", "slave"} {
		if pinned.Attr(key) == "" {
			t.Errorf("migrate span missing %q attr: %+v", key, pinned)
		}
	}
	tx := transfers[pinned.ID()]
	if tx == nil {
		t.Fatal("pinned migration has no transfer child span")
	}
	if tx.Attr("outcome") != "completed" {
		t.Errorf("transfer outcome = %q, want completed", tx.Attr("outcome"))
	}
	if tx.Node() == trace.NodeMaster {
		t.Error("transfer span should run on a worker node")
	}
	if tx.Begin() < pinned.Begin() || tx.End() > pinned.End() {
		t.Errorf("transfer [%v,%v] escapes its parent [%v,%v]",
			tx.Begin(), tx.End(), pinned.Begin(), pinned.End())
	}

	// The job's read of the migrated block, from the trace alone.
	block := pinned.Attr("block")
	var read *trace.Span
	for i := range spans {
		sp := &spans[i]
		if sp.Cat() == "read" && sp.Attr("block") == block {
			read = sp
			break
		}
	}
	if read == nil {
		t.Fatalf("no read span for migrated block %s", block)
	}
	if src := read.Attr("source"); src != "mem-local" && src != "mem-remote" {
		t.Errorf("migrated block read from %q, want a memory path", src)
	}
	lead := read.Begin().Sub(pinned.Begin())
	if lead <= 0 {
		t.Errorf("recomputed lead-time %v, want > 0 (request %v, first read %v)",
			lead, pinned.Begin(), read.Begin())
	}

	// Job/task spans exist and are linked.
	var jobSpan *trace.Span
	tasks := 0
	for i := range spans {
		sp := &spans[i]
		switch sp.Cat() {
		case "job":
			jobSpan = sp
		case "task":
			tasks++
			if parent := byID[sp.Parent()]; parent == nil || parent.Cat() != "job" {
				t.Errorf("task span %d not parented under a job span", sp.ID())
			}
		}
	}
	if jobSpan == nil || jobSpan.Open() {
		t.Fatal("no closed job span in trace")
	}
	if jobSpan.Attr("lead-time") == "" {
		t.Error("job span missing lead-time attr")
	}
	if tasks == 0 {
		t.Error("no task spans in trace")
	}
}

func TestTracedRunCountersAndSummary(t *testing.T) {
	tr := runTracedSort(t)
	if tr.Counter("migration.requested") == 0 || tr.Counter("migration.completed") == 0 {
		t.Fatalf("migration counters empty: %v", tr.Counters())
	}
	if tr.Counter("migration.bytes") == 0 {
		t.Error("migration.bytes not recorded")
	}
	var memBytes int64
	for _, src := range []string{"mem-local", "mem-remote"} {
		memBytes += tr.Counter("read.bytes." + src)
	}
	if memBytes == 0 {
		t.Error("no memory-path read bytes under DYRS")
	}
	if tr.Counter("flow.completed.disk") == 0 {
		t.Error("flow sink recorded no completed disk flows")
	}
	if tr.Counter("task.map") == 0 || tr.Counter("task.reduce") == 0 {
		t.Errorf("task counters empty: map=%d reduce=%d",
			tr.Counter("task.map"), tr.Counter("task.reduce"))
	}

	s := tr.Summarize()
	if s.LeadTime.Len() == 0 {
		t.Fatal("summary has no lead-time samples")
	}
	if s.LeadTime.Mean() <= 0 {
		t.Errorf("mean lead-time %.2fs, want > 0", s.LeadTime.Mean())
	}
	if int64(s.Spans) != int64(len(tr.Spans())) {
		t.Errorf("summary spans %d != recorded %d", s.Spans, len(tr.Spans()))
	}
}

// Tracing must be a pure observer: the simulated outcome of a run is
// identical with and without it.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	durations := make([]sim.Duration, 2)
	for i, traced := range []bool{false, true} {
		opt := dyrs.DefaultOptions(7)
		opt.Trace = traced
		env := dyrs.NewEnv(dyrs.PolicyDYRS, opt)
		if err := env.CreateInput("input", dyrs.GB); err != nil {
			t.Fatal(err)
		}
		j, err := env.FW.Submit(env.Prepare(dyrs.SortSpec("input", 4, true)))
		if err != nil {
			t.Fatal(err)
		}
		if err := env.WaitJob(j, time.Hour); err != nil {
			t.Fatal(err)
		}
		durations[i] = j.Duration()
		env.Close()
	}
	if durations[0] != durations[1] {
		t.Errorf("tracing changed the run: untraced %v, traced %v", durations[0], durations[1])
	}
}
