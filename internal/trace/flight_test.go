package trace

import (
	"strings"
	"testing"

	"dyrs/internal/sim"
)

func TestFlightRingRetainsTail(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetFlightRecorder(8)
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(sim.Duration(i+1)*100, func() {
			tr.Instant("read", "hit", i)
		})
	}
	eng.Run()

	evs := tr.FlightEvents()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring capacity 8", len(evs))
	}
	if tr.flight.total != 20 {
		t.Errorf("total = %d, want 20", tr.flight.total)
	}
	// Oldest-first unroll: the retained tail is instants 12..19.
	for i, ev := range evs {
		if ev.Node != 12+i {
			t.Errorf("event %d from node %d, want %d (oldest-first tail)", i, ev.Node, 12+i)
		}
	}
}

func TestFlightRingUnderCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetFlightRecorder(64)
	eng.Schedule(100, func() {
		sp := tr.Begin("migration", "migrate", 3)
		sp.End()
	})
	eng.Run()
	evs := tr.FlightEvents()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want begin+end", len(evs))
	}
	if evs[0].Kind != FlightSpanBegin || evs[1].Kind != FlightSpanEnd {
		t.Errorf("kinds = %v/%v, want begin/end", evs[0].Kind, evs[1].Kind)
	}
	if evs[0].Span == 0 || evs[0].Span != evs[1].Span {
		t.Errorf("span ids = %d/%d, want matching non-zero", evs[0].Span, evs[1].Span)
	}
}

func TestFlightDisarm(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetFlightRecorder(4)
	tr.SetFlightRecorder(0)
	tr.Instant("read", "hit", 1)
	if tr.FlightEvents() != nil || tr.flight != nil {
		t.Error("disarmed recorder retained events")
	}
	var nilTr *Tracer
	nilTr.SetFlightRecorder(4) // must not panic
	if nilTr.FlightEvents() != nil {
		t.Error("nil tracer returned flight events")
	}
}

func TestWriteFlightDump(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetFlightRecorder(8)
	eng.Schedule(250, func() {
		sp := tr.Begin("migration", "migrate", 5)
		tr.Instant("read", "hit", 2)
		sp.End()
	})
	eng.Run()

	var sb strings.Builder
	if err := WriteFlightDump(&sb, tr.FlightEvents()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"begin", "end", "instant", "migration/migrate", "read/hit", "node=5", "span="} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
