// Flight recorder: a bounded ring of the most recent trace records
// (span begins/ends and instants), kept so a failing run can dump the
// engine activity that led up to the failure without retaining the
// whole trace. The harness enables it on every scenario run and dumps
// the ring alongside the one-line repro when an oracle fails.
//
// The ring stores fixed-size entries referencing the interned category
// and name strings the call sites pass as literals, so steady-state
// recording allocates nothing and memory stays bounded by the
// configured capacity regardless of run length.
package trace

import (
	"fmt"
	"io"

	"dyrs/internal/sim"
)

// FlightKind classifies one flight-recorder entry.
type FlightKind uint8

// Flight-recorder entry kinds.
const (
	FlightSpanBegin FlightKind = iota
	FlightSpanEnd
	FlightInstant
)

func (k FlightKind) String() string {
	switch k {
	case FlightSpanBegin:
		return "begin"
	case FlightSpanEnd:
		return "end"
	case FlightInstant:
		return "instant"
	}
	return "?"
}

// FlightEvent is one entry of the flight-recorder ring.
type FlightEvent struct {
	At   sim.Time
	Kind FlightKind
	Cat  string
	Name string
	Node int
	Span int // span ID for begin/end entries, 0 for instants
}

// flightRing is a fixed-capacity overwrite-oldest ring.
type flightRing struct {
	buf   []FlightEvent
	next  int
	total uint64
}

func (r *flightRing) record(ev FlightEvent) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// events returns the retained entries oldest-first.
func (r *flightRing) events() []FlightEvent {
	if r.total >= uint64(len(r.buf)) {
		out := make([]FlightEvent, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	out := make([]FlightEvent, r.next)
	copy(out, r.buf[:r.next])
	return out
}

// SetFlightRecorder arms a flight recorder retaining the last n trace
// records; n <= 0 disarms it. Recording is independent of sampling
// state only in configuration — the ring sees exactly the records the
// tracer keeps, so with sampling enabled the ring is sampled too.
func (t *Tracer) SetFlightRecorder(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		t.flight = nil
		return
	}
	t.flight = &flightRing{buf: make([]FlightEvent, n)}
}

// FlightEvents returns the retained ring entries oldest-first, or nil
// when the recorder is disarmed.
func (t *Tracer) FlightEvents() []FlightEvent {
	if t == nil || t.flight == nil {
		return nil
	}
	return t.flight.events()
}

// WriteFlightDump renders flight events as one line per record —
// virtual timestamp, kind, category/name, node, span ID — the artifact
// dyrs-fuzz writes next to a failing seed's repro command.
func WriteFlightDump(w io.Writer, events []FlightEvent) error {
	for _, ev := range events {
		var err error
		if ev.Span != 0 {
			_, err = fmt.Fprintf(w, "%-14d %-7s %s/%s node=%d span=%d\n",
				int64(ev.At), ev.Kind, ev.Cat, ev.Name, ev.Node, ev.Span)
		} else {
			_, err = fmt.Fprintf(w, "%-14d %-7s %s/%s node=%d\n",
				int64(ev.At), ev.Kind, ev.Cat, ev.Name, ev.Node)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
