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
// accessor methods and its tracer's (Tracer.Label, Tracer.Attr). The
// record holds no Go pointers, so the span log is never scanned by the
// garbage collector: category and name share one interned label, the
// attributes live in the tracer's arena as a chain from head, and a
// span's ID is its index in Spans() plus one (DESIGN.md §10).
type Span struct {
	begin, end   sim.Time // end is -1 while open
	parent, node int32    // parent: the parent span's ID, 0 for a root
	label, head  uint32   // interned (category, name); attribute chain, 0 = none
}

// Label is an interned (category, name) pair; Tracer.Label resolves it.
type Label uint32

// Attrs is a record's attribute chain in its tracer's arena; Tracer.Attr
// and Tracer.IntAttr read it.
type Attrs uint32

// Parent reports the parent span's ID, or 0 for a root span.
func (s *Span) Parent() int { return int(s.parent) }

// Node reports the worker node index, or NodeMaster.
func (s *Span) Node() int { return int(s.node) }

// Begin reports the span's begin instant.
//
//lint:testapi the out-of-package integration test checks span nesting and lead time
func (s *Span) Begin() sim.Time { return s.begin }

// End reports the span's end instant, or -1 while it is open.
//
//lint:testapi the out-of-package integration test checks span nesting
func (s *Span) End() sim.Time { return s.end }

// Open reports whether the span has not ended.
func (s *Span) Open() bool { return s.end < 0 }

// Label reports the span's interned (category, name).
func (s *Span) Label() Label { return Label(s.label) }

// Attrs reports the span's attribute chain.
func (s *Span) Attrs() Attrs { return Attrs(s.head) }

// Instant is a point event in virtual time, read like a Span; its
// attributes are one contiguous chain in the arena.
type Instant struct {
	at    sim.Time
	node  int32
	label uint32
	head  uint32
}

// Node reports the worker node index, or NodeMaster.
func (in *Instant) Node() int { return int(in.node) }

// Label reports the instant's interned (category, name).
func (in *Instant) Label() Label { return Label(in.label) }

// Label resolves an interned label of one of the tracer's records to
// its category ("migration", "read", "task", "job", …) and name.
func (t *Tracer) Label(l Label) (cat, name string) {
	if t == nil {
		return "", ""
	}
	lb := t.st.labels[l]
	return lb.cat, lb.name
}

// Attr returns the value of the last attribute in the chain with the
// given key, or "" when absent.
func (t *Tracer) Attr(a Attrs, key string) string {
	if t == nil {
		return ""
	}
	return t.st.value(uint32(a), key)
}

// IntAttr returns the last attribute in the chain with the given key
// when it is an integer (Int or Dur) attribute, without formatting it.
func (t *Tracer) IntAttr(a Attrs, key string) (int64, bool) {
	if t == nil {
		return 0, false
	}
	return t.st.intValue(uint32(a), key)
}

// flowCounters caches the per-resource counter cells the FlowSink hot
// path increments, so steady-state flow tracing allocates nothing.
type flowCounters struct {
	started, completed, cancelled, bytes *int64
}

// Tracer records one run's trace. Construct with New, which attaches
// the tracer to the engine; retrieve anywhere with FromEngine.
type Tracer struct {
	eng      *sim.Engine
	st       store // attribute arena and intern tables the records index into
	spans    []Span
	instants []Instant
	counters map[string]*int64
	res      map[*sim.Resource]*flowCounters
	hists    map[string]*Hist
	sample   *sampleState // nil: record every root span/instant
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
	t.spans = append(t.spans, Span{
		begin: t.eng.Now(), end: -1, node: int32(node),
		label: t.st.label(cat, name), head: t.st.push(attrs),
	})
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
	t.instants = append(t.instants, Instant{
		at: t.eng.Now(), node: int32(node), label: t.st.label(cat, name), head: t.st.push(attrs),
	})
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
	s.t.spans[c.idx].parent = int32(s.idx + 1)
	return c
}

// Annotate appends attributes to the span (allowed after End).
func (s SpanRef) Annotate(attrs ...Attr) {
	if s.t == nil {
		return
	}
	sp := &s.t.spans[s.idx]
	sp.head = s.t.st.extend(sp.head, attrs)
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
	sp.head = s.t.st.extend(sp.head, attrs)
}

// Begin reports the span's begin instant, or 0 for the zero SpanRef.
func (s SpanRef) Begin() sim.Time {
	if s.t == nil {
		return 0
	}
	return s.t.spans[s.idx].begin
}

// Spans returns the recorded spans in begin order; span i has ID i+1.
// The slice is the tracer's own storage; callers must not mutate it.
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
