package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"dyrs/internal/sim"
)

func advance(eng *sim.Engine, d sim.Duration) {
	eng.Schedule(d, func() {})
	eng.RunFor(d)
}

func TestSpanLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	if FromEngine(eng) != tr {
		t.Fatal("FromEngine did not return the attached tracer")
	}

	root := tr.Begin("migration", "migrate", NodeMaster, Int("block", 7))
	advance(eng, time.Second)
	child := root.Child("migration", "transfer", 3, Str("k", "v"))
	advance(eng, time.Second)
	child.End(Str("outcome", "completed"))
	root.Annotate(Int("slave", 3))
	root.End(Str("outcome", "pinned"))
	root.End(Str("outcome", "dropped")) // first outcome wins

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	r, c := spans[0], spans[1]
	if root.idx != 0 || child.idx != 1 || c.Parent() != 1 || r.Parent() != 0 {
		t.Errorf("bad IDs/parentage: root %+v child %+v", r, c)
	}
	if r.Begin() != 0 || c.Begin() != sim.Time(time.Second) || c.End() != sim.Time(2*time.Second) {
		t.Errorf("bad timestamps: root %v-%v child %v-%v", r.Begin(), r.End(), c.Begin(), c.End())
	}
	if r.Open() || c.Open() {
		t.Error("spans should be closed")
	}
	if cat, name := tr.Label(c.Label()); cat != "migration" || name != "transfer" {
		t.Errorf("child label = %s/%s, want migration/transfer", cat, name)
	}
	if got := tr.Attr(r.Attrs(), "outcome"); got != "pinned" {
		t.Errorf("outcome = %q, want pinned (first End wins)", got)
	}
	if got := tr.Attr(r.Attrs(), "slave"); got != "3" {
		t.Errorf("slave = %q, want 3", got)
	}
	if got := tr.Attr(r.Attrs(), "missing"); got != "" {
		t.Errorf("missing attr = %q, want empty", got)
	}
	if got, ok := tr.IntAttr(r.Attrs(), "block"); !ok || got != 7 {
		t.Errorf("IntAttr(block) = %d, %v; want 7, true", got, ok)
	}
}

func TestAttrLastWins(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	sp := tr.Begin("x", "y", 0, Str("k", "a"))
	sp.Annotate(Str("k", "b"))
	if got := tr.Attr(tr.Spans()[0].Attrs(), "k"); got != "b" {
		t.Errorf("Attr = %q, want last-written b", got)
	}
	m := tr.st.attrMap(tr.Spans()[0].head)
	if m["k"] != "b" {
		t.Errorf("attrMap = %v, want k=b", m)
	}
	if tr.st.attrMap(0) != nil {
		t.Error("attrMap of the empty chain should be nil")
	}
}

func TestAttrConstructors(t *testing.T) {
	for _, tc := range []struct {
		attr Attr
		want string
	}{
		{Str("s", "v"), "v"},
		{Int("i", -42), "-42"},
		{Float("f", 0.25), "0.25"},
		{Dur("d", 1500*time.Millisecond), "1500000000"},
	} {
		if tc.attr.Value() != tc.want {
			t.Errorf("%s = %q, want %q", tc.attr.Key, tc.attr.Value(), tc.want)
		}
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.Inc("a")
	tr.Add("a", 4)
	if got := tr.Counter("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := tr.Counter("absent"); got != 0 {
		t.Errorf("absent = %d, want 0", got)
	}
	snap := tr.Counters()
	tr.Inc("a")
	if snap["a"] != 5 {
		t.Error("Counters must snapshot, not alias")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin("a", "b", 0, Str("k", "v"))
	sp.Annotate(Str("k", "v"))
	sp.End()
	_ = sp.Child("a", "b", 0)
	_ = sp.Begin()
	tr.Instant("a", "b", 0)
	tr.Inc("x")
	tr.Add("x", 2)
	if tr.Counter("x") != 0 || tr.Counters() != nil || tr.Spans() != nil {
		t.Error("nil tracer should report nothing")
	}
	if tr.Summarize() != nil {
		t.Error("nil tracer Summarize should be nil")
	}
}

// TestNilTracerExports: the JSON and Chrome exporters accept a nil
// tracer like every other method and write what an empty tracer writes
// at time 0.
func TestNilTracerExports(t *testing.T) {
	var nilTr *Tracer
	empty := New(sim.NewEngine(1))
	for _, c := range []struct {
		name       string
		got, empty func(io.Writer) error
	}{
		{"WriteJSON", nilTr.WriteJSON, empty.WriteJSON},
		{"WriteChromeTrace", nilTr.WriteChromeTrace, empty.WriteChromeTrace},
	} {
		var got, want bytes.Buffer
		if err := c.got(&got); err != nil {
			t.Fatalf("nil %s: %v", c.name, err)
		}
		if err := c.empty(&want); err != nil {
			t.Fatalf("empty %s: %v", c.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("nil %s wrote\n%s\nan empty tracer writes\n%s", c.name, got.String(), want.String())
		}
	}
}

func TestResourceKind(t *testing.T) {
	for in, want := range map[string]string{
		"disk:node3":  "disk",
		"nic:node0":   "nic",
		"core-switch": "core-switch",
	} {
		if got := resourceKind(in); got != want {
			t.Errorf("resourceKind(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFlowSinkCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	disk := sim.NewResource(eng, "disk:node0", 100*float64(sim.MB), nil)
	f := disk.StartLoad(1.0)
	f2 := disk.StartWeighted(10*sim.MB, 1.0, nil)
	advance(eng, 10*time.Second) // f2 completes
	f.Cancel()
	_ = f2
	if got := tr.Counter("flow.started.disk"); got != 2 {
		t.Errorf("started = %d, want 2", got)
	}
	if got := tr.Counter("flow.completed.disk"); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := tr.Counter("flow.cancelled.disk"); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
	if got := tr.Counter("flow.bytes.disk"); got != int64(10*sim.MB) {
		t.Errorf("bytes = %d, want %d", got, int64(10*sim.MB))
	}
}

// drive records an identical trace on a fresh engine.
func drive(seed int64) *Tracer {
	eng := sim.NewEngine(seed)
	tr := New(eng)
	root := tr.Begin("migration", "migrate", NodeMaster, Int("block", 1), Int("size", 64))
	advance(eng, time.Second)
	ch := root.Child("migration", "transfer", 2)
	advance(eng, 2*time.Second)
	ch.End(Str("outcome", "completed"))
	root.End(Str("outcome", "pinned"))
	tr.Instant("migration", "evict", 2, Int("block", 1))
	tr.Begin("read", "read", 4, Int("block", 1)) // left open
	tr.Inc("migration.completed")
	tr.Add("read.bytes.mem-remote", 64)
	return tr
}

func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := drive(1).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := drive(1).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("canonical JSON not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	for _, want := range []string{Schema, `"end_ns": -1`, `"migration.completed": 1`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := drive(1).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"M"`, `"ph":"X"`, `"ph":"i"`, `"ph":"C"`,
		`"name":"master"`, `"name":"node2"`, `"name":"migrations"`,
		`"open":"true"`, // the read span left open, clamped to now
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	mig := tr.Begin("migration", "migrate", NodeMaster, Int("block", 5))
	advance(eng, 2*time.Second)
	mig.End(Str("outcome", "pinned"))
	advance(eng, 3*time.Second) // first read at t=5s
	rd := tr.Begin("read", "read", 1, Int("block", 5))
	rd.End(Str("source", "mem-local"))
	tr.Inc("migration.requested")
	tr.Inc("migration.completed")
	tr.Add("read.bytes.mem-local", 100)

	s := tr.Summarize()
	if s.MigrationsCompleted != 1 || s.ReadBytes["mem-local"] != 100 {
		t.Errorf("bad counters in summary: %+v", s)
	}
	if s.LeadTime.Len() != 1 {
		t.Fatalf("lead-time samples = %d, want 1", s.LeadTime.Len())
	}
	if got := s.LeadTime.Mean(); got != 5 {
		t.Errorf("lead-time = %.1fs, want 5s (request t=0, first read t=5)", got)
	}
	if got := s.Margin.Mean(); got != 3 {
		t.Errorf("margin = %.1fs, want 3s (pin t=2, first read t=5)", got)
	}
	if !strings.Contains(s.String(), "achieved lead-time") {
		t.Errorf("summary rendering missing lead-time line:\n%s", s)
	}
}

// TestSummarizeSampled: under 1-in-N sampling the span-derived lead-time
// and margin would come from whichever pairs survived, so Summarize
// leaves them out and String says why; the counters stay exact.
func TestSummarizeSampled(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetSampling(4, 1)
	for b := int64(0); b < 8; b++ {
		tr.Begin("migration", "migrate", NodeMaster, Int("block", b)).End(Str("outcome", "pinned"))
		advance(eng, time.Second)
		tr.Begin("read", "read", 1, Int("block", b)).End(Str("source", "mem-local"))
		tr.Inc("migration.completed")
	}
	s := tr.Summarize()
	if s.SampleN != 4 || s.MigrationsCompleted != 8 {
		t.Errorf("SampleN = %d, completed = %d; want 4 and 8", s.SampleN, s.MigrationsCompleted)
	}
	if s.LeadTime.Len() != 0 || s.Margin.Len() != 0 {
		t.Errorf("sampled summary kept %d lead-time and %d margin samples, want none", s.LeadTime.Len(), s.Margin.Len())
	}
	out := s.String()
	if strings.Contains(out, "achieved lead-time") || !strings.Contains(out, "omitted: spans are sampled 1-in-4") {
		t.Errorf("sampled summary should omit lead-time and margin and say why:\n%s", out)
	}
}
