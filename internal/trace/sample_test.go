package trace

import (
	"bytes"
	"fmt"
	"testing"

	"dyrs/internal/sim"
)

// record drives a fixed span/instant workload against the tracer:
// per-node migration roots with read children, plus instants.
func sampleWorkload(tr *Tracer, eng *sim.Engine) {
	for i := 0; i < 400; i++ {
		node := i % 7
		eng.Schedule(sim.Duration(i+1)*1000, func() {
			sp := tr.Begin("migration", "migrate", node)
			ch := sp.Child("read", "transfer", node)
			ch.End()
			sp.End()
			tr.Instant("read", "hit", node)
			tr.Inc("work.done")
		})
	}
	eng.Run()
}

func TestSamplingDeterministic(t *testing.T) {
	runOnce := func() []byte {
		eng := sim.NewEngine(42)
		tr := New(eng)
		tr.SetSampling(8, 7)
		sampleWorkload(tr, eng)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Error("sampled exports differ across identical runs")
	}
}

func TestSamplingKeepsSubsetAndExactCounters(t *testing.T) {
	eng := sim.NewEngine(42)
	tr := New(eng)
	tr.SetSampling(8, 7)
	sampleWorkload(tr, eng)

	if got := tr.Counter("work.done"); got != 400 {
		t.Errorf("counter = %d under sampling, want exact 400", got)
	}
	spans := tr.Spans()
	if len(spans) == 0 || len(spans) >= 800 {
		t.Errorf("sampled span count = %d, want 0 < n < 800", len(spans))
	}
	// Every kept root keeps its child: each child's parent is a kept
	// root recorded before it.
	for i, s := range spans {
		if p := s.Parent(); p != 0 && (p > i || spans[p-1].Parent() != 0) {
			t.Fatalf("child span %d kept without its root parent %d", i+1, p)
		}
	}
	if tr.SampledOut() == 0 {
		t.Error("SampledOut = 0; sampling dropped nothing")
	}
	if tr.SampleN() != 8 {
		t.Errorf("SampleN = %d, want 8", tr.SampleN())
	}
}

func TestSamplingSeedSelectsDifferentSubsets(t *testing.T) {
	subset := func(seed uint64) string {
		eng := sim.NewEngine(42)
		tr := New(eng)
		tr.SetSampling(8, seed)
		sampleWorkload(tr, eng)
		var kept []sim.Time
		for _, s := range tr.Spans() {
			kept = append(kept, s.Begin())
		}
		return fmt.Sprint(kept)
	}
	if subset(1) == subset(2) {
		t.Error("different sampling seeds kept the identical span subset")
	}
}

func TestSamplingDisabled(t *testing.T) {
	eng := sim.NewEngine(42)
	tr := New(eng)
	tr.SetSampling(1, 7) // n <= 1 disables
	if tr.sample != nil {
		t.Fatal("sampler armed at n=1")
	}
	sampleWorkload(tr, eng)
	if got := len(tr.Spans()); got != 800 {
		t.Errorf("span count = %d with sampling disabled, want 800", got)
	}
	if tr.SampledOut() != 0 {
		t.Error("SampledOut non-zero with sampling disabled")
	}
}

func TestSampledOutZeroRefNoOps(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetSampling(1<<30, 0) // drop essentially every root
	var kept SpanRef
	for i := 0; i < 64; i++ {
		if sp := tr.Begin("migration", "m", i); sp.t == nil {
			kept = sp
			break
		}
	}
	// Children, annotations and End on the zero ref must all no-op.
	ch := kept.Child("read", "r", 0)
	ch.End()
	kept.Annotate(Str("k", "v"))
	kept.End()
	if kept.Begin() != 0 {
		t.Error("zero SpanRef leaked state")
	}
}
