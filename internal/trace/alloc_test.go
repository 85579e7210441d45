package trace

import (
	"runtime"
	"testing"
	"time"

	"dyrs/internal/sim"
)

// The disabled path must be free: a nil tracer's methods are pure nil
// checks. Call sites guard attribute construction behind Enabled(), so
// the attr-free forms below are exactly the disabled hot path.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	var sp SpanRef
	avg := testing.AllocsPerRun(200, func() {
		s := tr.Begin("migration", "migrate", 0)
		s.Annotate()
		s.End()
		sp.Child("migration", "transfer", 1)
		tr.Instant("migration", "bind", 0)
		tr.Inc("migration.requested")
		tr.Add("migration.bytes", 128)
		_ = tr.Enabled()
		_ = tr.Counter("migration.requested")
	})
	if avg != 0 {
		t.Errorf("nil tracer allocates %.2f objects/op, want 0", avg)
	}
}

// flowCycle runs one complete and one cancelled flow on the resource.
func flowCycle(eng *sim.Engine, r *sim.Resource) {
	r.Start(sim.MB, nil)
	load := r.StartLoad(1)
	eng.RunFor(time.Second)
	load.Cancel()
}

func flowAllocs(attachTracer bool) float64 {
	eng := sim.NewEngine(1)
	if attachTracer {
		New(eng)
	}
	r := sim.NewResource(eng, "disk:node0", 100*float64(sim.MB), nil)
	for i := 0; i < 64; i++ { // warm pools and (when traced) counter cells
		flowCycle(eng, r)
	}
	return testing.AllocsPerRun(200, func() { flowCycle(eng, r) })
}

// Tracing must add zero allocations to flow start/complete/cancel: the
// disabled path is one nil check, and the enabled path hits per-resource
// cached counter cells.
func TestFlowTracingAllocOverhead(t *testing.T) {
	base := flowAllocs(false)
	traced := flowAllocs(true)
	if traced > base {
		t.Errorf("tracer adds flow-path allocations: %.2f traced vs %.2f untraced objects/op", traced, base)
	}
}

// Event scheduling never touches the tracer; attaching one must keep the
// steady-state schedule/run cycle allocation-free.
func TestScheduleZeroAllocsWithTracer(t *testing.T) {
	eng := sim.NewEngine(1)
	New(eng)
	nop := func() {}
	for i := 0; i < 128; i++ {
		eng.Schedule(time.Millisecond, nop)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		eng.Schedule(time.Millisecond, nop)
		eng.Run()
	})
	if avg != 0 {
		t.Errorf("schedule/run with tracer attached allocates %.2f objects/op, want 0", avg)
	}
}

// TestInstantLogGrowthBytes bounds the instant log's memory: 2^17
// attribute-free instants take at most 25 B each, the 24-byte record
// plus what the one partly filled page and the page list cost. Pages
// never move, so the log allocates what it holds; a log that doubled as
// it grew allocated about 48 B per instant.
func TestInstantLogGrowthBytes(t *testing.T) {
	const n = 1 << 17
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.Instant("migration", "bind", 0) // intern the label
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		tr.Instant("migration", "bind", i%8)
	}
	runtime.ReadMemStats(&after)
	if perInstant := float64(after.TotalAlloc-before.TotalAlloc) / n; perInstant > 25 {
		t.Errorf("the instant log allocates %.2f B per instant, want at most 25", perInstant)
	}
	if got := tr.Summarize().Instants; got != n {
		t.Fatalf("recorded %d instants, want %d", got, n)
	}
}
