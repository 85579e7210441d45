package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"dyrs/internal/sim"
)

// FuzzTraceStore replays one byte program into the tracer and into the
// reference []Attr-per-record store (refstore_test.go) and requires the
// two to be indistinguishable: identical canonical and Chrome
// documents, Summarize results, flight-recorder contents, record fields
// and Attr values for every key. cfg selects sampling and the flight
// recorder (see replay).
func FuzzTraceStore(f *testing.F) {
	f.Add(byte(0), []byte{})
	// Duplicate keys: Begin with block, Annotate twice, End with block.
	f.Add(byte(0), []byte{0, 1, 0, 2, 1, 3, 2, 5, 40, 6, 9, 0, 1, 1, 70})
	// A pinned migration and a later read of the same block.
	f.Add(byte(0), []byte{0, 0, 0, 1, 0, 0, 2, 1, 2, 6, 30, 0, 0, 1, 2, 1, 4, 2, 1, 0, 6})
	// Annotate after End, then a second End.
	f.Add(byte(0), []byte{0, 2, 3, 1, 0, 1, 2, 0, 9, 1, 0, 33, 4, 1, 2})
	// Sampled, with the flight recorder armed.
	f.Add(byte(7), []byte{0, 4, 4, 6, 255, 255, 1, 0, 3, 0, 2, 4, 4, 9, 9, 3, 1, 1, 0, 8, 0, 4, 5, 5})
	f.Add(byte(5), []byte{0, 0, 0, 3, 1, 1, 6, 50, 0, 1, 0, 0, 2, 2, 2, 5, 1, 1, 4, 3, 67})

	f.Fuzz(func(t *testing.T, cfg byte, data []byte) {
		tr, ref := replay(data, cfg, 7, true)
		sameOutput(t, "WriteJSON", tr.WriteJSON, ref.WriteJSON)
		sameOutput(t, "WriteChromeTrace", tr.WriteChromeTrace, ref.WriteChromeTrace)
		if got, want := tr.Summarize(), ref.Summarize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Summarize differs:\n%s\nreference:\n%s", got, want)
		}
		if got, want := tr.FlightEvents(), ref.flight.eventsOrNil(); !reflect.DeepEqual(got, want) {
			t.Fatalf("flight events differ:\n%v\nreference:\n%v", got, want)
		}
		sameRecords(t, tr, ref)
	})
}

func (r *flightRing) eventsOrNil() []FlightEvent {
	if r == nil {
		return nil
	}
	return r.events()
}

func sameOutput(t *testing.T, what string, write, ref func(io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := ref(&want); err != nil {
		t.Fatalf("%s (reference): %v", what, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s differs from the reference store:\n%s\nreference:\n%s", what, got.String(), want.String())
	}
}

// sameRecords compares every span and instant field by field, and the
// value of every key the program can write (plus an absent one).
func sameRecords(t *testing.T, tr *Tracer, ref *refRecorder) {
	t.Helper()
	keys := append([]string{"extra", "missing"}, fuzzKeys...)
	spans, instants := tr.Spans(), tr.Instants()
	if len(spans) != len(ref.spans) || len(instants) != len(ref.instants) {
		t.Fatalf("%d spans, %d instants; reference %d, %d",
			len(spans), len(instants), len(ref.spans), len(ref.instants))
	}
	for i := range spans {
		s, w := &spans[i], &ref.spans[i]
		cat, name := tr.Label(s.Label())
		if i+1 != w.ID || s.Parent() != w.Parent || cat != w.Cat || name != w.Name ||
			s.Node() != w.Node || s.Begin() != w.Begin || s.End() != w.End || s.Open() != w.Open() {
			t.Fatalf("span %d = {%d %s %s %d %d %d}, reference %+v", i,
				s.Parent(), cat, name, s.Node(), s.Begin(), s.End(), *w)
		}
		for _, k := range keys {
			if got, want := tr.Attr(s.Attrs(), k), w.Attr(k); got != want {
				t.Fatalf("span %d Attr(%q) = %q, reference %q", i, k, got, want)
			}
			got, ok := tr.IntAttr(s.Attrs(), k)
			want, wantOK := refIntAttr(w.Attrs, k)
			if got != want || ok != wantOK {
				t.Fatalf("span %d IntAttr(%q) = %d, %v; reference %d, %v", i, k, got, ok, want, wantOK)
			}
		}
	}
	for i := range instants {
		in, w := &instants[i], &ref.instants[i]
		cat, name := tr.Label(in.Label())
		if cat != w.Cat || name != w.Name || in.Node() != w.Node || in.at != w.At {
			t.Fatalf("instant %d = {%s %s %d %d}, reference %+v", i, cat, name, in.Node(), in.at, *w)
		}
		for _, k := range keys {
			if got, want := tr.Attr(Attrs(in.head), k), refAttr(w.Attrs, k); got != want {
				t.Fatalf("instant %d Attr(%q) = %q, reference %q", i, k, got, want)
			}
			got, ok := tr.IntAttr(Attrs(in.head), k)
			want, wantOK := refIntAttr(w.Attrs, k)
			if got != want || ok != wantOK {
				t.Fatalf("instant %d IntAttr(%q) = %d, %v; reference %d, %v", i, k, got, ok, want, wantOK)
			}
		}
	}
}

// refIntAttr is IntAttr over a []Attr: the last attribute with the key,
// when it is an integer.
func refIntAttr(attrs []Attr, key string) (int64, bool) {
	for i := len(attrs) - 1; i >= 0; i-- {
		if attrs[i].Key == key {
			if attrs[i].kind != attrInt {
				return 0, false
			}
			return attrs[i].num, true
		}
	}
	return 0, false
}

// TestRecordSizes pins the compact layout (DESIGN.md §10): a 16-byte
// attribute record, 32-byte spans and 24-byte instants, none of them
// holding a pointer, map, slice or string, so the attribute pages and
// the span and instant logs are noscan and the garbage collector never
// traverses them.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
		{reflect.TypeFor[attrRec](), 16},
		{reflect.TypeFor[Span](), 32},
		{reflect.TypeFor[Instant](), 24},
	} {
		if c.typ.Size() != c.size {
			t.Errorf("%s is %d B, want %d", c.typ, c.typ.Size(), c.size)
		}
		if path := pointerField(c.typ, c.typ.Name()); path != "" {
			t.Errorf("%s holds a pointer-shaped field at %s; its log would be scanned by the GC", c.typ, path)
		}
	}
}

// pointerField returns the path of the first field of typ that is or
// holds a Go pointer, or "" when typ is pointer-free.
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return path + " (" + typ.Kind().String() + ")"
}

// recordOp is one recording-path op: a read-shaped span begun and
// ended with two attributes each, and a two-attribute instant.
func recordOp(tr *Tracer) {
	sp := tr.Begin("read", "read", 3, Int("block", 42), Int("size", 128<<20))
	sp.End(Str("source", "mem-local"), Int("server", 5))
	tr.Instant("migration", "evict", 3, Int("block", 42), Int("size", 128<<20))
}

// TestTraceRecordAllocs: once a tracer has interned its keys, labels
// and string values, recording allocates only the amortized growth of
// the span/instant logs and arena pages — nothing per record.
func TestTraceRecordAllocs(t *testing.T) {
	tr := New(sim.NewEngine(1))
	for i := 0; i < 4096; i++ {
		recordOp(tr)
	}
	if avg := testing.AllocsPerRun(1000, func() { recordOp(tr) }); avg != 0 {
		t.Errorf("recording allocates %.2f objects/op on a warm tracer, want 0", avg)
	}
}
