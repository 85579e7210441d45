package trace

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dyrs/internal/sim"
)

// FuzzTraceStore replays one byte program into the tracer and into the
// reference []Attr-per-record store (refstore_test.go) and requires the
// two to be indistinguishable: identical canonical and Chrome
// documents, Summarize results, record fields and Attr values for every
// key. cfg selects sampling (see replay).
func FuzzTraceStore(f *testing.F) {
	f.Add(byte(0), []byte{})
	// Duplicate keys: Begin with block, Annotate twice, End with block.
	f.Add(byte(0), []byte{0, 1, 0, 2, 1, 3, 2, 5, 40, 6, 9, 0, 1, 1, 70})
	// A pinned migration and a later read of the same block.
	f.Add(byte(0), []byte{0, 0, 0, 1, 0, 0, 2, 1, 2, 6, 30, 0, 0, 1, 2, 1, 4, 2, 1, 0, 6})
	// Annotate after End, then a second End.
	f.Add(byte(0), []byte{0, 2, 3, 1, 0, 1, 2, 0, 9, 1, 0, 33, 4, 1, 2})
	// Sampled (the cfg&4 bit these seeds set is unused).
	f.Add(byte(7), []byte{0, 4, 4, 6, 255, 255, 1, 0, 3, 0, 2, 4, 4, 9, 9, 3, 1, 1, 0, 8, 0, 4, 5, 5})
	f.Add(byte(5), []byte{0, 0, 0, 3, 1, 1, 6, 50, 0, 1, 0, 0, 2, 2, 2, 5, 1, 1, 4, 3, 67})
	// Zigzag varint edges: 0 at Begin, -1 annotated, MinInt64 at End,
	// MaxInt64 on an instant.
	f.Add(byte(0), []byte{0, 1, intB(0), 2, 0, intB(-1), 1, 0, intB(math.MinInt64), 4, 2, intB(math.MaxInt64)})
	// Raw float bits: NaN, -0, +Inf, -Inf and a subnormal.
	f.Add(byte(0), []byte{0, 1, floatB(math.NaN()), 2, 0, floatB(math.Copysign(0, -1)), 2, 3, floatB(math.Inf(1)),
		1, 0, floatB(math.Inf(-1)), 4, 0, floatB(math.SmallestNonzeroFloat64)})
	// An empty key with an empty string value, on a span and an instant.
	empty := byte(len(fuzzKeys) - 1)
	f.Add(byte(0), []byte{0, empty, strB(""), 2, 0, strB(""), 4, empty, empty})
	f.Add(byte(0), longChainProgram())
	f.Add(byte(0), bulkPushProgram())

	f.Fuzz(func(t *testing.T, cfg byte, data []byte) {
		tr, ref := replay(data, cfg, 7, true)
		sameOutput(t, "WriteJSON", tr.WriteJSON, ref.WriteJSON)
		sameOutput(t, "WriteChromeTrace", tr.WriteChromeTrace, ref.WriteChromeTrace)
		if got, want := tr.Summarize(), ref.Summarize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Summarize differs:\n%s\nreference:\n%s", got, want)
		}
		sameRecords(t, tr, ref)
	})
}

// fuzzB returns a b byte for which fuzzAttr draws the value at index i
// of kind's table.
func fuzzB(kind uint8, i int) byte {
	n := [...]int{attrStr: len(fuzzVals), attrInt: len(fuzzInts), attrFloat: len(fuzzFloats)}[kind]
	for b := 0; b < 256; b++ {
		if (b>>5)%3 == int(kind) && b%n == i {
			return byte(b)
		}
	}
	panic("fuzzB: no byte draws that value")
}

func strB(v string) byte { return fuzzB(attrStr, slices.Index(fuzzVals, v)) }
func intB(v int64) byte  { return fuzzB(attrInt, slices.Index(fuzzInts, v)) }
func floatB(v float64) byte {
	return fuzzB(attrFloat, slices.IndexFunc(fuzzFloats, func(f float64) bool {
		return math.Float64bits(f) == math.Float64bits(v)
	}))
}

// longChainProgram begins one span and annotates it 1,200 times with a
// float and an int, so its chain of segments runs across arena pages,
// then ends it.
func longChainProgram() []byte {
	p := []byte{0, 1, intB(7)}
	for i := 0; i < 1200; i++ {
		p = append(p, 2, 0, floatB(3.5))
	}
	return append(p, 1, 0, strB("pinned"))
}

// bulkPushProgram begins a span, writes 2,041 float attributes in one
// Annotate, more than one arena page and one count byte hold, then
// annotates and ends the span after that split push.
func bulkPushProgram() []byte {
	return []byte{0, 1, intB(7), 7, 255, floatB(0), 2, 0, intB(-65), 1, 0, strB("dropped")}
}

// TestArenaSeedsSplit: FuzzTraceStore's long-chain and bulk seeds reach
// the page and count-byte splits they are there for.
func TestArenaSeedsSplit(t *testing.T) {
	for _, c := range []struct {
		name    string
		program []byte
		segs    int // at least this many segments in span 1's chain
	}{
		{"long chain", longChainProgram(), 1202},
		{"bulk push", bulkPushProgram(), 2041/segMaxAttrs + 3},
	} {
		tr, _ := replay(c.program, 0, 7, false)
		pages := map[uint32]bool{}
		segs := 0
		for a := tr.spans[0].head; a != 0; a = tr.st.link(a) {
			pages[a>>arenaPageBits] = true
			segs++
		}
		if segs < c.segs || len(pages) < 2 {
			t.Errorf("%s: span chain has %d segments on %d pages, want at least %d on 2", c.name, segs, len(pages), c.segs)
		}
	}
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

// TestRecordSizes pins the compact layout (DESIGN.md §10): 32-byte
// spans and 24-byte instants, neither holding a pointer, map, slice or
// string, so the span and instant logs are noscan and the garbage
// collector never traverses them. The attribute pages are byte arrays.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		size uintptr
	}{
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
	if path := pointerField(reflect.TypeFor[arenaPage](), "arenaPage"); path != "" {
		t.Errorf("the arena page holds a pointer-shaped field at %s; the arena would be scanned by the GC", path)
	}
}

// TestArenaBytesPerOp pins the varint attribute encoding: a read span
// and an evict instant (recordOp, six attributes in three segments) take
// at most 40 arena bytes, where 16-byte fixed records took 96.
func TestArenaBytesPerOp(t *testing.T) {
	const ops = 4096
	tr := New(sim.NewEngine(1))
	recordOp(tr)
	before := arenaBytes(&tr.st)
	for i := 0; i < ops; i++ {
		recordOp(tr)
	}
	if per := float64(arenaBytes(&tr.st)-before) / ops; per > 40 {
		t.Errorf("recordOp takes %.1f arena bytes, want at most 40", per)
	}
}

// arenaBytes is the arena's size up to its next free byte.
func arenaBytes(st *store) int {
	return len(st.pages)*arenaPageLen - (arenaPageLen - st.off)
}

// TestArenaRoundTrip pushes runs of one to nine attributes across
// forty pages and decodes every chain back. The ints take every varint
// length and both signs, a quarter of them the longest; the floats take
// arbitrary bits, and forty keys push key indexes past one varint byte.
// So every page-end offset is reached: an attribute that overruns its
// page or a slip in the decoder shows here.
func TestArenaRoundTrip(t *testing.T) {
	st := newStore()
	var want [][]Attr
	var heads []uint32
	x := uint64(1)
	for len(st.pages) < 40 {
		attrs := make([]Attr, x%9+1)
		for j := range attrs {
			x = x*6364136223846793005 + 1442695040888963407 // an LCG
			key := "k" + strconv.Itoa(int(x>>32%40))
			switch x >> 62 {
			case 0:
				attrs[j] = Float(key, math.Float64frombits(x*0x9e3779b97f4a7c15))
			case 1:
				attrs[j] = Str(key, fuzzVals[x>>40%uint64(len(fuzzVals))])
			default:
				v := int64(x * 0x9e3779b97f4a7c15)
				if x>>16&3 != 0 { // a quarter keep all 64 bits: the longest attributes
					v >>= x >> 8 % 64
				}
				attrs[j] = Int(key, v)
			}
		}
		heads = append(heads, st.push(attrs))
		want = append(want, attrs)
	}
	for i, h := range heads {
		got := st.decode(nil, h)
		if len(got) != len(want[i]) {
			t.Fatalf("chain %d decodes to %d attributes, want %d", i, len(got), len(want[i]))
		}
		for j, a := range want[i] {
			val := uint64(a.num)
			if a.kind == attrStr {
				val = uint64(st.strIdx[a.str])
			}
			if w := (attrVal{val, st.strIdx[a.Key], a.kind}); got[j] != w {
				t.Fatalf("chain %d attribute %d = %+v, want %+v (%s=%s)", i, j, got[j], w, a.Key, a.Value())
			}
		}
	}
}

// TestArenaFullPanics: a tracer whose arena has used every addressable
// page panics with a named message instead of wrapping its addresses.
func TestArenaFullPanics(t *testing.T) {
	tr := New(sim.NewEngine(1))
	tr.st.pages = make([]*arenaPage, arenaMaxPages) // address space used up, pages never touched
	tr.st.off = arenaPageLen
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "attribute arena full") {
			t.Fatalf("recover() = %q, want the arena-full panic", msg)
		}
	}()
	tr.Instant("read", "read", 0, Int("block", 1))
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

// TestTraceReadAllocs: Attr and IntAttr read a chain longer than a
// handful of attributes, across several segments, without allocating.
func TestTraceReadAllocs(t *testing.T) {
	tr := New(sim.NewEngine(1))
	sp := tr.Begin("read", "read", 3, Int("block", 42), Int("size", 128<<20))
	for i := 0; i < 12; i++ {
		sp.Annotate(Int("retry", int64(i)), Str("source", "disk"))
	}
	sp.End(Str("source", "mem-local"))
	a := tr.Spans()[0].Attrs()
	if v, ok := tr.IntAttr(a, "retry"); !ok || v != 11 {
		t.Fatalf("IntAttr(retry) = %d, %v, want 11, true", v, ok)
	}
	if v := tr.Attr(a, "source"); v != "mem-local" {
		t.Fatalf("Attr(source) = %q, want mem-local", v)
	}
	avg := testing.AllocsPerRun(1000, func() {
		tr.IntAttr(a, "retry")
		tr.Attr(a, "source")
	})
	if avg != 0 {
		t.Errorf("reading a 27-attribute chain allocates %.2f objects/op, want 0", avg)
	}
}
