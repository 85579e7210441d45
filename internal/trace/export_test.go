package trace

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"dyrs/internal/sim"
)

// TestWriteJSONEscaping puts each escaping case in every string
// position of the canonical document (category, name, attribute key
// and value, counter and histogram name) and requires WriteJSON's
// bytes to equal the encoding/json reference's (refstore_test.go).
func TestWriteJSONEscaping(t *testing.T) {
	for _, s := range append([]string{"plain", `x"y\z`, "\t\n\r\b\f\x7f", "a b", "\xc3"}, escapeCases...) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
		}

		eng := sim.NewEngine(1)
		tr := New(eng)
		ref := &refRecorder{t: tr}
		sp := tr.Begin(s, s, 1, Str(s, s), Int("n", 1))
		rsp := ref.Begin(s, s, 1, Str(s, s), Int("n", 1))
		advance(eng, time.Second)
		sp.Child("read", s, 2, Str("k", s)).End()
		rsp.Child("read", s, 2, Str("k", s)).End()
		sp.End(Float(s, 0.5))
		rsp.End(Float(s, 0.5))
		tr.Instant(s, "i", 0, Str(s, s+s))
		ref.Instant(s, "i", 0, Str(s, s+s))
		tr.Inc(s)
		tr.Hist(s).Observe(3)
		sameOutput(t, "WriteJSON of "+string(want), tr.WriteJSON, ref.WriteJSON)
	}
}

// tracedRun records n reads in the shape of the root package's
// newTracedRun (BenchmarkTraceWriteJSON): each read a span with two
// attributes at begin and two at end and a child transfer span, one
// instant per 16 reads, two counters and a histogram.
func tracedRun(n int) *Tracer {
	eng := sim.NewEngine(1)
	tr := New(eng)
	lat := tr.Hist("read.latency_ns")
	for i := 0; i < n; i++ {
		node := i % 200
		eng.RunUntil(sim.Time(i) * sim.Time(time.Millisecond))
		sp := tr.Begin("read", "read", node, Int("block", int64(i)), Int("size", 128<<20))
		sp.Child("read", "transfer", (node+1)%200, Int("bytes", 128<<20)).End()
		sp.End(Str("source", "disk"), Int("server", int64(node)))
		lat.Observe(int64(i%977) * int64(time.Millisecond))
		tr.Inc("dfs.reads")
		if i%16 == 0 {
			tr.Instant("migration", "evict", node, Int("block", int64(i)))
			tr.Inc("migration.evicted")
		}
	}
	return tr
}

// TestWriteJSONAllocs: the export allocates per document, never per
// record, so a warm export of a 10,000-read trace makes exactly as many
// allocations as one of a 1,000-read trace.
func TestWriteJSONAllocs(t *testing.T) {
	exportAllocs := func(tr *Tracer) float64 {
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := exportAllocs(tracedRun(1000)), exportAllocs(tracedRun(10000))
	if small != large {
		t.Errorf("WriteJSON allocates %.0f objects for 1,000 reads and %.0f for 10,000; want the same", small, large)
	}
}

// TestAppendInt checks the export's integer formatter against strconv
// at every digit-count and 32/64-bit boundary, at the int64 limits and
// over a seeded sweep.
func TestAppendInt(t *testing.T) {
	vals := []int64{0, 1, -1, 9, 10, 99, 100, 1e18 - 1, 1e18, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, p+1, 10*p-1, -p, -p+1)
	}
	for s := 0; s < 63; s++ {
		vals = append(vals, int64(1)<<s-1, int64(1)<<s, -(int64(1) << s))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63()>>rng.Intn(63), -rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vals {
		if got, want := string(appendInt([]byte("x"), v)), "x"+strconv.FormatInt(v, 10); got != want {
			t.Fatalf("appendInt(%d) = %s, want %s", v, got, want)
		}
	}
}
