package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"dyrs/internal/sim"
)

// interpret replays a byte program against a fresh engine+tracer:
// begin/end/annotate spans, child spans, instants, counters and clock
// advances, all derived deterministically from the input bytes.
func interpret(data []byte) *Tracer {
	tr, _ := replay(data, 0, 7, false)
	return tr
}

var (
	fuzzCats  = []string{"migration", "read", "task", "flow"}
	fuzzNames = []string{"migrate", "transfer", "read", "map", "tick"}
	fuzzKeys  = append(append([]string{"outcome", "block", "size", "reason"}, escapeCases...), "")
	fuzzVals  = append([]string{"pinned", "dropped", "7", "x\"y z", ""}, escapeCases...)
	// fuzzInts and fuzzFloats hold small values and the edges of the
	// arena's varint and raw-bits encodings.
	fuzzInts   = []int64{-2, -1, 0, 1, 2, 5, 7, 63, 64, -64, -65, 1 << 20, -1 << 40, math.MinInt64, math.MaxInt64}
	fuzzFloats = []float64{0, 0.5, 1, 3.5, 7, -2.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64}
)

// escapeCases reach every branch of the canonical export's string
// escaper: HTML-sensitive bytes, U+2028, control bytes, a multi-byte
// rune and an invalid UTF-8 byte.
var escapeCases = []string{"<a&b>", "\u2028", "\x00\x1f", "é", "\xff"}

// fuzzAttr draws a string, integer or float attribute: (b>>5)%3 picks
// the kind and b the value. The values overlap across kinds ("7", 7 and
// 7.0 all format as "7").
func fuzzAttr(a, b int) Attr {
	key := fuzzKeys[a%len(fuzzKeys)]
	switch (b >> 5) % 3 {
	case 1:
		return Int(key, fuzzInts[b%len(fuzzInts)])
	case 2:
		return Float(key, fuzzFloats[b%len(fuzzFloats)])
	}
	return Str(key, fuzzVals[b%len(fuzzVals)])
}

// replay runs the byte program of interpret. cfg&3 selects 1-in-(n+1)
// sampling (0: off); cfg&4 is unused, kept so the seed corpus and
// recorded crashers that set it replay unchanged. With
// withRef the program is replayed in lockstep into the reference store
// as well, sharing the tracer's engine, counters and topology.
//
// Ends and annotations pick any recorded span, so a span may be ended
// twice (the second End is a no-op) or annotated after its End. A bulk
// annotation writes 8a+1 attributes in one call, enough at a = 255 to
// outgrow an arena page.
func replay(data []byte, cfg byte, seed int64, withRef bool) (*Tracer, *refRecorder) {
	eng := sim.NewEngine(seed)
	tr := New(eng)
	tr.SetTopology([]int{0, 1, 0, 1})
	var ref *refRecorder
	if withRef {
		ref = &refRecorder{t: tr}
	}
	if n := int(cfg & 3); n > 0 {
		tr.SetSampling(n+1, uint64(seed))
		if ref != nil {
			ref.sample = &sampleState{n: uint64(n + 1), seed: uint64(seed), ord: make(map[sampleKey]uint64)}
		}
	}

	type handle struct {
		s SpanRef
		r refRef
	}
	var spans []handle
	for i := 0; i+2 < len(data); i += 3 {
		a, b := int(data[i+1]), int(data[i+2])
		attr := fuzzAttr(a, b)
		switch data[i] % 8 {
		case 0:
			cat, name, node := fuzzCats[a%len(fuzzCats)], fuzzNames[b%len(fuzzNames)], a%5-1
			h := handle{s: tr.Begin(cat, name, node, attr)}
			if ref != nil {
				h.r = ref.Begin(cat, name, node, attr)
			}
			spans = append(spans, h)
		case 1:
			if n := len(spans); n > 0 {
				spans[a%n].s.End(attr)
				spans[a%n].r.End(attr)
			}
		case 2:
			if n := len(spans); n > 0 {
				spans[a%n].s.Annotate(attr, Int("extra", int64(b)))
				spans[a%n].r.Annotate(attr, Int("extra", int64(b)))
			}
		case 3:
			if n := len(spans); n > 0 {
				cat, name, node := fuzzCats[b%len(fuzzCats)], fuzzNames[a%len(fuzzNames)], b%5-1
				p := spans[a%n]
				spans = append(spans, handle{s: p.s.Child(cat, name, node), r: p.r.Child(cat, name, node)})
			}
		case 4:
			cat, name, node := fuzzCats[a%len(fuzzCats)], fuzzNames[b%len(fuzzNames)], a%5-1
			second := fuzzAttr(b, a)
			tr.Instant(cat, name, node, attr, second)
			if ref != nil {
				ref.Instant(cat, name, node, attr, second)
			}
		case 5:
			tr.Add("counter."+fuzzKeys[a%len(fuzzKeys)], int64(b-128))
		case 6:
			eng.Schedule(sim.Duration(a)*sim.Duration(time.Millisecond), func() {})
			eng.RunFor(sim.Duration(a) * sim.Duration(time.Millisecond))
		case 7:
			if n := len(spans); n > 0 {
				bulk := make([]Attr, 8*a+1)
				for j := range bulk {
					bulk[j] = fuzzAttr(a+j, b^(j&31))
				}
				spans[b%n].s.Annotate(bulk...)
				spans[b%n].r.Annotate(bulk...)
			}
		}
	}
	return tr, ref
}

// FuzzCanonicalJSON checks the canonical dyrs-trace/v2 export over
// arbitrary span/instant/counter histories:
//
//  1. the document is valid JSON;
//  2. the export is deterministic: replaying the identical history
//     byte-for-byte reproduces the document (the property the fuzzing
//     harness's determinism oracle hashes);
//  3. the canonical form is a fixpoint: decoding into the document
//     model and re-encoding with the same encoder settings yields the
//     identical bytes — no map-ordering or formatting drift.
func FuzzCanonicalJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 0, 0, 4, 3, 3, 5, 9, 200})
	f.Add([]byte{0, 0, 0, 3, 1, 1, 6, 50, 0, 1, 0, 0, 2, 2, 2, 5, 1, 1})
	f.Add([]byte{0, 4, 4, 6, 255, 255, 1, 0, 3, 0, 2, 4, 4, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		var out1, out2 bytes.Buffer
		if err := interpret(data).WriteJSON(&out1); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !json.Valid(out1.Bytes()) {
			t.Fatalf("invalid JSON:\n%s", out1.String())
		}
		if err := interpret(data).WriteJSON(&out2); err != nil {
			t.Fatalf("WriteJSON (replay): %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatal("identical histories produced different documents")
		}

		var doc traceDoc
		if err := json.Unmarshal(out1.Bytes(), &doc); err != nil {
			t.Fatalf("document does not round-trip through traceDoc: %v", err)
		}
		if doc.Schema != Schema {
			t.Fatalf("schema %q, want %q", doc.Schema, Schema)
		}
		var re bytes.Buffer
		enc := json.NewEncoder(&re)
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		// An invalid UTF-8 byte is exported as the escape \ufffd; it
		// decodes to U+FFFD, which re-encodes unescaped. No fuzzed
		// string holds a backslash before "ufffd", so the replacement
		// touches only those escapes.
		want := bytes.ReplaceAll(out1.Bytes(), []byte(`\ufffd`), []byte("\ufffd"))
		if !bytes.Equal(want, re.Bytes()) {
			t.Fatalf("canonical form is not a fixpoint:\n--- export ---\n%s\n--- re-encode ---\n%s",
				out1.String(), re.String())
		}
	})
}
