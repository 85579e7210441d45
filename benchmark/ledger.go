package main

import "time"

// seam names one timed boundary between the benchmark and a layer: a
// call the benchmark makes into a layer's public API, or a call a layer
// makes through a decorator the benchmark installed.
type seam int

const (
	// seamSetup and seamSim are the two phase frames of a rep. Their self
	// time is what no nested seam covers: the benchmark's own glue during
	// set-up, and the event loop itself during the simulation.
	seamSetup seam = iota
	seamSim

	seamGen      // workload generation (gtrace, serving stream, SWIM trace)
	seamCluster  // cluster.New and rack configuration
	seamCreate   // dfs.New and every CreateFile
	seamLookup   // dfs file and block-id lookups during set-up
	seamSchedule // pre-scheduling the workload into the event queue
	seamCoordNew // migration.NewCoordinator
	seamWarmup   // the estimator warm-up migration before a SWIM replay
	seamMigrate  // Manager.Migrate
	seamNoteRead // Manager.NoteRead
	seamEvict    // Manager.Evict
	seamDrain    // ScavengeAll and Shutdown at the end of a run
	seamBegin    // policy.Policy.Begin: one Algorithm 1 pass starts
	seamAssign   // policy.Policy.Assign: one block targeted
	seamRead     // dfs.FS.ReadBlock (the synchronous part)
	seamSubmit   // compute.Framework.Submit
	seamFsck     // dfs.FS.Fsck
	seamExport   // trace.Tracer.WriteJSON to io.Discard
	numSeams
)

// seamInfo names each seam's per-layer metrics. Seams with perCall set
// also report their call count.
var seamInfo = [numSeams]struct {
	name    string
	perCall bool
}{
	seamSetup:    {"bench.setup", false},
	seamSim:      {"sim.loop", false},
	seamGen:      {"workload.gen", false},
	seamCluster:  {"cluster.new", false},
	seamCreate:   {"dfs.create", true},
	seamLookup:   {"dfs.lookup", false},
	seamSchedule: {"sim.schedule", false},
	seamCoordNew: {"migration.new", false},
	seamWarmup:   {"migration.warmup", false},
	seamMigrate:  {"migration.migrate", true},
	seamNoteRead: {"migration.noteread", true},
	seamEvict:    {"migration.evict", true},
	seamDrain:    {"migration.drain", false},
	seamBegin:    {"policy.begin", true},
	seamAssign:   {"policy.assign", true},
	seamRead:     {"dfs.read", true},
	seamSubmit:   {"compute.submit", true},
	seamFsck:     {"dfs.fsck", false},
	seamExport:   {"trace.export", false},
}

// frame is one open span on the ledger's stack.
type frame struct {
	s     seam
	start time.Duration // monotonic clock reading, see now
	child time.Duration // summed durations of the spans nested in this one
}

// epoch anchors now. Reading only the monotonic clock costs about half
// of a time.Now call, which matters at hundreds of thousands of spans.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// ledger accumulates per-seam call counts and self time for the traced
// rep. Spans live in fixed arrays, so timing a call allocates nothing.
// A nil *ledger is the untraced mode: enter and exit return at once.
type ledger struct {
	calls [numSeams]uint64
	self  [numSeams]time.Duration
	stack [16]frame
	depth int
}

// enter opens a span for s.
func (l *ledger) enter(s seam) {
	if l == nil {
		return
	}
	l.calls[s]++
	l.stack[l.depth] = frame{s: s, start: now()}
	l.depth++
}

// exit closes the innermost span: its self time is its duration minus
// its children's, and its whole duration is charged to its parent as
// child time.
func (l *ledger) exit() {
	if l == nil {
		return
	}
	l.depth--
	f := &l.stack[l.depth]
	d := now() - f.start
	l.self[f.s] += d - f.child
	if l.depth > 0 {
		l.stack[l.depth-1].child += d
	}
}
