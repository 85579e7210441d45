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
	if err := env.CreateInput("input", dyrs.GB); err != nil {
		t.Fatal(err)
	}
	spec := dyrs.SortSpec("input", 4)
	spec.ExtraLeadTime = 5 * time.Second
	if _, err := env.RunJob(spec); err != nil {
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
	label := func(sp *trace.Span) (string, string) { return tr.Label(sp.Label()) }
	attr := func(sp *trace.Span, key string) string { return tr.Attr(sp.Attrs(), key) }

	// Find a pinned migration with a completed transfer child. A span's
	// ID is its index + 1.
	pinnedID := 0
	transfers := map[int]*trace.Span{} // parent ID -> transfer child
	for i := range spans {
		sp := &spans[i]
		switch cat, name := label(sp); {
		case cat == "migration" && name == "migrate" && attr(sp, "outcome") == "pinned":
			if pinnedID == 0 {
				pinnedID = i + 1
			}
		case cat == "migration" && name == "transfer":
			transfers[sp.Parent()] = sp
		}
	}
	if pinnedID == 0 {
		t.Fatal("no pinned migration span in trace")
	}
	pinned := &spans[pinnedID-1]
	if pinned.Node() != trace.NodeMaster {
		t.Errorf("migrate span on node %d, want master", pinned.Node())
	}
	for _, key := range []string{"job", "block", "size", "slave"} {
		if attr(pinned, key) == "" {
			t.Errorf("migrate span missing %q attr: %+v", key, pinned)
		}
	}
	tx := transfers[pinnedID]
	if tx == nil {
		t.Fatal("pinned migration has no transfer child span")
	}
	if attr(tx, "outcome") != "completed" {
		t.Errorf("transfer outcome = %q, want completed", attr(tx, "outcome"))
	}
	if tx.Node() == trace.NodeMaster {
		t.Error("transfer span should run on a worker node")
	}
	if tx.Begin() < pinned.Begin() || tx.End() > pinned.End() {
		t.Errorf("transfer [%v,%v] escapes its parent [%v,%v]",
			tx.Begin(), tx.End(), pinned.Begin(), pinned.End())
	}

	// The job's read of the migrated block, from the trace alone.
	block := attr(pinned, "block")
	var read *trace.Span
	for i := range spans {
		sp := &spans[i]
		if cat, _ := label(sp); cat == "read" && attr(sp, "block") == block {
			read = sp
			break
		}
	}
	if read == nil {
		t.Fatalf("no read span for migrated block %s", block)
	}
	if src := attr(read, "source"); src != "mem-local" && src != "mem-remote" {
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
		switch cat, _ := label(sp); cat {
		case "job":
			jobSpan = sp
		case "task":
			tasks++
			p := sp.Parent()
			if p < 1 || p > i {
				t.Errorf("task span %d has no earlier parent span", i+1)
			} else if parentCat, _ := label(&spans[p-1]); parentCat != "job" {
				t.Errorf("task span %d not parented under a job span", i+1)
			}
		}
	}
	if jobSpan == nil || jobSpan.Open() {
		t.Fatal("no closed job span in trace")
	}
	if attr(jobSpan, "lead-time") == "" {
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
		j, err := env.RunJob(dyrs.SortSpec("input", 4))
		if err != nil {
			t.Fatal(err)
		}
		durations[i] = j.Duration()
	}
	if durations[0] != durations[1] {
		t.Errorf("tracing changed the run: untraced %v, traced %v", durations[0], durations[1])
	}
}
