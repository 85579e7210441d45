package main

import (
	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// The decorators below wrap the seams the layers already expose so the
// traced rep can time calls a layer makes on its own (the binder's
// Algorithm 1 passes, the compute framework's migration calls). They
// forward every call unchanged; untraced reps do not install them.

// timedPolicy times the Begin/Assign pass of a target-selection policy.
type timedPolicy struct {
	policy.Policy
	led        *ledger
	unassigned int
}

func (p *timedPolicy) Begin(v policy.View) {
	p.led.enter(seamBegin)
	p.Policy.Begin(v)
	p.led.exit()
}

func (p *timedPolicy) Assign(req policy.Request) (cluster.NodeID, bool) {
	p.led.enter(seamAssign)
	n, ok := p.Policy.Assign(req)
	p.led.exit()
	if !ok {
		p.unassigned++
	}
	return n, ok
}

// dyrsBinder returns the DYRS binder every workload runs: the plain one
// when untraced, or one whose policy is timed (returned too, for its
// unassigned count).
func dyrsBinder(led *ledger) (*migration.PolicyBinder, *timedPolicy) {
	if led == nil {
		return migration.NewDYRSBinder(), nil
	}
	tp := &timedPolicy{Policy: policy.NewDYRS(), led: led}
	return migration.NewPolicyBinder(tp), tp
}

// timedManager is the migration.Manager the compute framework calls in
// the traced SWIM rep. It forwards SetJobHint so the coordinator still
// receives scheduler hints.
type timedManager struct {
	c   *migration.Coordinator
	led *ledger
}

func (m timedManager) Migrate(job migration.JobID, files []string, implicitEvict bool) error {
	m.led.enter(seamMigrate)
	err := m.c.Migrate(job, files, implicitEvict)
	m.led.exit()
	return err
}

func (m timedManager) Evict(job migration.JobID) {
	m.led.enter(seamEvict)
	m.c.Evict(job)
	m.led.exit()
}

func (m timedManager) NoteRead(job migration.JobID, block dfs.BlockID) {
	m.led.enter(seamNoteRead)
	m.c.NoteRead(job, block)
	m.led.exit()
}

func (m timedManager) SetJobHint(job migration.JobID, hint migration.JobHint) {
	m.c.SetJobHint(job, hint)
}

// flowCounter is the engine's FlowSink in traced reps: it counts flow
// admissions, cancellations and the peak number of concurrent flows,
// and forwards every call to the run's tracer when one is attached.
type flowCounter struct {
	next               sim.FlowSink
	started, cancelled uint64
	active, peak       int
}

// countFlows installs a flowCounter on eng. Call it after any tracer is
// attached, so the tracer keeps its flow counters.
func countFlows(eng *sim.Engine) *flowCounter {
	fc := &flowCounter{}
	if tr := trace.FromEngine(eng); tr != nil {
		fc.next = tr
	}
	eng.SetFlowSink(fc)
	return fc
}

func (fc *flowCounter) FlowStarted(r *sim.Resource, f *sim.Flow) {
	fc.started++
	fc.active++
	if fc.active > fc.peak {
		fc.peak = fc.active
	}
	if fc.next != nil {
		fc.next.FlowStarted(r, f)
	}
}

func (fc *flowCounter) FlowEnded(r *sim.Resource, f *sim.Flow, completed bool) {
	fc.active--
	if !completed {
		fc.cancelled++
	}
	if fc.next != nil {
		fc.next.FlowEnded(r, f, completed)
	}
}

// report records the flow counters; a nil counter (untraced rep)
// records nothing.
func (fc *flowCounter) report(c map[string]float64) {
	if fc == nil {
		return
	}
	c["sim.flows"] = float64(fc.started)
	c["sim.flows_cancelled"] = float64(fc.cancelled)
	c["sim.peak_flows"] = float64(fc.peak)
}
