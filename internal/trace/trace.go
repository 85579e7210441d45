// Package trace is the deterministic observability layer of the
// simulator: a virtual-time tracer recording spans (begin/end intervals
// with node and key=value attributes), instant events, and a counter /
// gauge registry, threaded through the DFS, migration and compute
// layers so one run yields a complete causal timeline — when a
// migration was requested vs. when its job's first read landed, and
// which reads were redirected to memory.
//
// Everything is keyed to sim.Time, so traces are exactly reproducible:
// the same seed produces a byte-identical canonical JSON export.
//
// A nil *Tracer is valid and records nothing. Every method has a
// nil-receiver fast path, so "tracing disabled" costs a nil check and
// no allocations; components cache the run's tracer once at
// construction via FromEngine and call it unconditionally.
package trace

import (
	"math"
	"strconv"
	"strings"

	"dyrs/internal/sim"
)

// Attr is one key=value span/instant attribute. Numeric values are
// stored raw and formatted lazily at export: under sampling most
// records are dropped at Begin, and eager strconv on the dropped path
// was the dominant allocation cost of tracing a large run. The
// formatting itself (strconv, shortest round-trip floats) is a pure
// function of the value, so the canonical encoding stays deterministic.
type Attr struct {
	Key  string
	str  string
	num  int64 // int value, or float64 bits
	kind uint8
}

const (
	attrStr uint8 = iota
	attrInt
	attrFloat
)

// Value formats the attribute value.
func (a Attr) Value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrFloat:
		return strconv.FormatFloat(math.Float64frombits(uint64(a.num)), 'g', -1, 64)
	}
	return a.str
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, num: v, kind: attrInt} }

// Float builds a float attribute (shortest round-trip formatting,
// deterministic for identical values).
func Float(k string, v float64) Attr {
	return Attr{Key: k, num: int64(math.Float64bits(v)), kind: attrFloat}
}

// Dur builds a duration attribute in integer nanoseconds.
func Dur(k string, d sim.Duration) Attr { return Int(k, int64(d)) }

// NodeMaster is the Node value for master/cluster-scoped events that
// belong to no single worker.
const NodeMaster = -1

// Span is one begin/end interval in virtual time, read through its
// accessor methods. The record is compact: category and name share one
// interned label, and the attributes live in the tracer's arena as a
// chain from head to tail (DESIGN.md §10).
type Span struct {
	st         *store
	begin, end sim.Time // end is -1 while open
	id, parent int32    // 1-based, assigned in Begin order; parent 0 = root
	node       int32
	label      uint32 // interned (category, name)
	head, tail uint32 // attribute chain in st's arena; 0 = none
}

// ID reports the span's 1-based ID, assigned in Begin order.
func (s *Span) ID() int { return int(s.id) }

// Parent reports the parent span's ID, or 0 for a root span.
func (s *Span) Parent() int { return int(s.parent) }

// Cat reports the taxonomy bucket: "migration", "read", "task", "job".
func (s *Span) Cat() string { return s.st.labels[s.label].cat }

// Name reports the span name.
func (s *Span) Name() string { return s.st.labels[s.label].name }

// Node reports the worker node index, or NodeMaster.
func (s *Span) Node() int { return int(s.node) }

// Begin reports the span's begin instant.
func (s *Span) Begin() sim.Time { return s.begin }

// End reports the span's end instant, or -1 while it is open.
func (s *Span) End() sim.Time { return s.end }

// Open reports whether the span has not ended.
func (s *Span) Open() bool { return s.end < 0 }

// Attr returns the value of the last attribute with the given key, or
// "" when absent.
func (s *Span) Attr(key string) string { return s.st.value(s.head, key) }

// IntAttr returns the last attribute with the given key when it is an
// integer (Int or Dur) attribute, without formatting it.
func (s *Span) IntAttr(key string) (int64, bool) { return s.st.intValue(s.head, key) }

// Instant is a point event in virtual time, read through its accessor
// methods; its attributes are one contiguous chain in the arena.
type Instant struct {
	st    *store
	at    sim.Time
	node  int32
	label uint32
	head  uint32
}

// Cat reports the instant's category.
func (in *Instant) Cat() string { return in.st.labels[in.label].cat }

// Name reports the instant's name.
func (in *Instant) Name() string { return in.st.labels[in.label].name }

// Node reports the worker node index, or NodeMaster.
func (in *Instant) Node() int { return int(in.node) }

// At reports the instant's virtual time.
func (in *Instant) At() sim.Time { return in.at }

// Attr returns the value of the last attribute with the given key, or
// "" when absent.
func (in *Instant) Attr(key string) string { return in.st.value(in.head, key) }

// flowCounters caches the per-resource counter cells the FlowSink hot
// path increments, so steady-state flow tracing allocates nothing.
type flowCounters struct {
	started, completed, cancelled, bytes *int64
}

// Tracer records one run's trace. Construct with New, which attaches
// the tracer to the engine; retrieve anywhere with FromEngine.
type Tracer struct {
	eng      *sim.Engine
	st       store // attribute arena and intern tables the records point into
	spans    []Span
	instants []Instant
	counters map[string]*int64
	res      map[*sim.Resource]*flowCounters
	hists    map[string]*Hist
	sample   *sampleState // nil: record every root span/instant
	flight   *flightRing  // nil: flight recorder disarmed
	rackOf   []int        // node -> rack for the capped Perfetto export; nil = unknown
}

// New creates a tracer and attaches it to the engine — both as the
// engine's opaque tracer slot (so components find it via FromEngine)
// and as the flow sink observing resource-level transfer lifecycle.
// Attach before building the cluster/DFS/framework stack: components
// capture the tracer at construction.
func New(eng *sim.Engine) *Tracer {
	t := &Tracer{
		eng:      eng,
		st:       newStore(),
		counters: make(map[string]*int64),
		res:      make(map[*sim.Resource]*flowCounters),
		hists:    make(map[string]*Hist),
	}
	eng.SetTracer(t)
	eng.SetFlowSink(t)
	return t
}

// FromEngine returns the tracer attached to the engine, or nil when
// the run is untraced. The nil result is directly usable: all Tracer
// methods are nil-safe no-ops.
func FromEngine(eng *sim.Engine) *Tracer {
	t, _ := eng.Tracer().(*Tracer)
	return t
}

// Enabled reports whether the tracer actually records. Call sites use
// it to skip attribute construction on the disabled path.
func (t *Tracer) Enabled() bool { return t != nil }

// Now reports the tracer's current virtual time.
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.eng.Now()
}

// SpanRef is a cheap handle on a recorded span. The zero SpanRef (from
// a nil tracer) is valid; End/Annotate/Child on it are no-ops.
type SpanRef struct {
	t   *Tracer
	idx int
}

// Begin opens a root span. Under 1-in-N sampling (SetSampling) the
// whole tree is kept or dropped here: a sampled-out Begin returns the
// zero SpanRef and every child/annotation on it no-ops.
func (t *Tracer) Begin(cat, name string, node int, attrs ...Attr) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	if t.sample != nil && !t.sample.keep(cat, node) {
		return SpanRef{}
	}
	return t.begin(cat, name, node, attrs)
}

// begin records a span unconditionally — the post-sampling-decision
// path shared by root Begin and Child (children follow their root's
// sampling fate, never their own).
func (t *Tracer) begin(cat, name string, node int, attrs []Attr) SpanRef {
	id := len(t.spans) + 1
	if len(t.spans) == cap(t.spans) {
		// Double: append grows a long log by only ~1.25× and so
		// re-copies it about four times over (DESIGN.md §6).
		t.spans = append(make([]Span, 0, max(2*cap(t.spans), 1)), t.spans...)
	}
	head, tail := t.st.push(attrs)
	t.spans = append(t.spans, Span{
		st: &t.st, begin: t.eng.Now(), end: -1, id: int32(id), node: int32(node),
		label: t.st.label(cat, name), head: head, tail: tail,
	})
	if t.flight != nil {
		t.flight.record(FlightEvent{At: t.eng.Now(), Kind: FlightSpanBegin,
			Cat: cat, Name: name, Node: node, Span: id})
	}
	return SpanRef{t: t, idx: id - 1}
}

// Instant records a point event, subject to the same deterministic
// per-(category, node) sampling as root spans.
func (t *Tracer) Instant(cat, name string, node int, attrs ...Attr) {
	if t == nil {
		return
	}
	if t.sample != nil && !t.sample.keep(cat, node) {
		return
	}
	if len(t.instants) == cap(t.instants) {
		t.instants = append(make([]Instant, 0, max(2*cap(t.instants), 1)), t.instants...) // double, as for spans
	}
	head, _ := t.st.push(attrs)
	t.instants = append(t.instants, Instant{
		st: &t.st, at: t.eng.Now(), node: int32(node), label: t.st.label(cat, name), head: head,
	})
	if t.flight != nil {
		t.flight.record(FlightEvent{At: t.eng.Now(), Kind: FlightInstant,
			Cat: cat, Name: name, Node: node})
	}
}

// SetTopology records the node -> rack map the capped Perfetto export
// aggregates processes by. Unset (or nil) keeps the one-process-per-
// node layout at any scale.
func (t *Tracer) SetTopology(rackOf []int) {
	if t == nil {
		return
	}
	t.rackOf = rackOf
}

// Child opens a span parented under s. A child may live on a different
// node track than its parent (a master-side migration span parents the
// slave-side transfer span).
func (s SpanRef) Child(cat, name string, node int, attrs ...Attr) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	c := s.t.begin(cat, name, node, attrs)
	s.t.spans[c.idx].parent = s.t.spans[s.idx].id
	return c
}

// Annotate appends attributes to the span (allowed after End).
func (s SpanRef) Annotate(attrs ...Attr) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.head, sp.tail = s.t.st.extend(sp.head, sp.tail, attrs)
}

// End closes the span at the current virtual instant, appending any
// final attributes. Ending an already-ended span is a no-op (the first
// outcome wins), so teardown paths may End defensively.
func (s SpanRef) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	if sp.end >= 0 {
		return
	}
	sp.end = s.t.eng.Now()
	sp.head, sp.tail = s.t.st.extend(sp.head, sp.tail, attrs)
	if s.t.flight != nil {
		s.t.flight.record(FlightEvent{At: sp.end, Kind: FlightSpanEnd,
			Cat: sp.Cat(), Name: sp.Name(), Node: sp.Node(), Span: sp.ID()})
	}
}

// Begin reports the span's begin instant, or 0 for the zero SpanRef.
func (s SpanRef) Begin() sim.Time {
	if s.t == nil {
		return 0
	}
	return s.t.spans[s.idx].begin
}

// ID reports the span's 1-based ID, or 0 for the zero SpanRef.
func (s SpanRef) ID() int {
	if s.t == nil {
		return 0
	}
	return s.t.spans[s.idx].ID()
}

// Spans returns the recorded spans in begin order. The slice is the
// tracer's own storage; callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Instants returns the recorded instants in record order (tracer-owned
// storage; do not mutate).
func (t *Tracer) Instants() []Instant {
	if t == nil {
		return nil
	}
	return t.instants
}

// --- counter / gauge registry ---

func (t *Tracer) cell(name string) *int64 {
	p := t.counters[name]
	if p == nil {
		p = new(int64)
		t.counters[name] = p
	}
	return p
}

// Add increments the named counter by delta.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	*t.cell(name) += delta
}

// Inc increments the named counter by one.
func (t *Tracer) Inc(name string) { t.Add(name, 1) }

// Set overwrites the named cell — gauge semantics.
func (t *Tracer) Set(name string, v int64) {
	if t == nil {
		return
	}
	*t.cell(name) = v
}

// Counter reports the named counter's value (0 when absent or the
// tracer is nil).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	if p := t.counters[name]; p != nil {
		return *p
	}
	return 0
}

// Counters returns a snapshot copy of the whole registry.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64, len(t.counters))
	for k, p := range t.counters {
		out[k] = *p
	}
	return out
}

// --- sim.FlowSink: resource-level flow accounting ---

// resourceKind maps "disk:node3" to "disk"; names without a colon
// (e.g. "core-switch") are their own kind.
func resourceKind(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

func (t *Tracer) flowCells(r *sim.Resource) *flowCounters {
	fc := t.res[r]
	if fc == nil {
		kind := resourceKind(r.Name())
		fc = &flowCounters{
			started:   t.cell("flow.started." + kind),
			completed: t.cell("flow.completed." + kind),
			cancelled: t.cell("flow.cancelled." + kind),
			bytes:     t.cell("flow.bytes." + kind),
		}
		t.res[r] = fc
	}
	return fc
}

// FlowStarted implements sim.FlowSink: it counts flow admissions per
// resource kind. Only counters are kept — per-flow spans would dwarf
// the semantic spans recorded by the DFS/migration/compute layers.
func (t *Tracer) FlowStarted(r *sim.Resource, f *sim.Flow) {
	*t.flowCells(r).started++
}

// FlowEnded implements sim.FlowSink.
func (t *Tracer) FlowEnded(r *sim.Resource, f *sim.Flow, completed bool) {
	fc := t.flowCells(r)
	if completed {
		*fc.completed++
		*fc.bytes += f.Size()
	} else {
		*fc.cancelled++
	}
}

var _ sim.FlowSink = (*Tracer)(nil)
