// Trace export: a canonical JSON document (schema dyrs-trace/v2,
// deterministic and byte-identical across runs at the same seed, in the
// style of the dyrs-bench timing documents) and Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Schema versions the canonical trace document layout. v2 added the
// streaming histogram section and the sampling-rate self-description
// (both omitted when unused, so an unsampled histogram-free v2 document
// is byte-identical to v1 apart from this field).
const Schema = "dyrs-trace/v2"

// WriteJSON writes the canonical trace document: spans and instants in
// record order, each span under its own ID. Every field derives from
// virtual time, seeded randomness or record order, and object keys are
// sorted, so identical seeds produce byte-identical documents. A nil
// tracer writes the document of an empty one at time 0.
//
// The bytes are exactly what encoding/json writes for the document with
// SetIndent("", " "): the same key order, omitted empty fields and
// HTML-safe escaping (refstore_test.go keeps that encoder as the
// reference). The document streams to w through one fixed buffer.
func (t *Tracer) WriteJSON(w io.Writer) error {
	e := canonWriter{w: w, buf: make([]byte, 0, canonChunk+canonChunk/4)}
	var now int64
	if t != nil {
		now = int64(t.eng.Now())
	}
	e.buf = append(e.buf, "{\n \"schema\": "...)
	e.buf = appendJSONString(e.buf, Schema)
	e.buf = append(e.buf, ",\n \"now_ns\": "...)
	e.buf = appendInt(e.buf, now)
	if n := t.SampleN(); n > 1 {
		e.buf = append(e.buf, ",\n \"sample_n\": "...)
		e.buf = appendInt(e.buf, int64(n))
	}
	if n := t.SampledOut(); n != 0 {
		e.buf = append(e.buf, ",\n \"sampled_out\": "...)
		e.buf = strconv.AppendUint(e.buf, n, 10)
	}
	e.buf = append(e.buf, ",\n \"counters\": "...)
	e.counters(t)
	if names := t.HistNames(); len(names) > 0 {
		e.buf = append(e.buf, ",\n \"hists\": {"...)
		for i, name := range names {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, "\n  "...)
			e.buf = appendJSONString(e.buf, name)
			e.buf = append(e.buf, ": "...)
			e.hist(t.hists[name])
		}
		e.buf = append(e.buf, "\n }"...)
	}
	if t != nil {
		e.index(&t.st)
	}
	e.buf = append(e.buf, ",\n \"spans\": "...)
	if t == nil || len(t.spans) == 0 {
		e.buf = append(e.buf, "[]"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range t.spans {
			e.span(i, &t.spans[i])
			e.maybeFlush()
		}
		e.buf = append(e.buf, "\n ]"...)
	}
	e.buf = append(e.buf, ",\n \"instants\": "...)
	if t == nil || t.instants.n == 0 {
		e.buf = append(e.buf, "[]"...)
	} else {
		e.buf = append(e.buf, '[')
		t.instants.each(func(i int, in *Instant) {
			e.instant(i, in)
			e.maybeFlush()
		})
		e.buf = append(e.buf, "\n ]"...)
	}
	e.buf = append(e.buf, "\n}\n"...)
	e.flush()
	return e.err
}

// canonChunk is the size at which WriteJSON's buffer is flushed.
const canonChunk = 32 << 10

// canonWriter appends the canonical document to buf and flushes it to w
// in chunks. The indentation is written literally: the document has a
// fixed shape, so each field's depth is known where it is written.
//
// Records name their strings by intern index, so index escapes every
// interned string and label once per export, into text, and the record
// writers copy those bytes.
type canonWriter struct {
	w   io.Writer
	buf []byte
	err error // the first write error; later flushes are skipped

	st    *store
	text  []byte    // escaped interned strings, then label fields
	rank  []uint32  // interned string i's position in bytewise order
	str   []uint32  // the interned string of rank r is text[str[r]:str[r+1]]
	label []uint32  // label i's "cat" and "name" fields are text[label[i]:label[i+1]]
	keys  []attrVal // one record's attributes, deduplicated and sorted by key rank
}

func (e *canonWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *canonWriter) maybeFlush() {
	if len(e.buf) >= canonChunk {
		e.flush()
	}
}

// index ranks st's interned strings in bytewise order and escapes them
// into e.text in that order, then its labels.
func (e *canonWriter) index(st *store) {
	e.st = st
	order := make([]uint32, len(st.strs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(st.strs[a], st.strs[b]) })
	e.rank = make([]uint32, len(st.strs))
	e.str = make([]uint32, 0, len(st.strs)+1)
	for r, i := range order {
		e.rank[i] = uint32(r)
		e.str = append(e.str, uint32(len(e.text)))
		e.text = appendJSONString(e.text, st.strs[i])
	}
	e.str = append(e.str, uint32(len(e.text)))
	e.label = make([]uint32, 0, len(st.labels)+1)
	for _, lb := range st.labels {
		e.label = append(e.label, uint32(len(e.text)))
		e.text = append(e.text, "\"cat\": "...)
		e.text = appendJSONString(e.text, lb.cat)
		e.text = append(e.text, ",\n   \"name\": "...)
		e.text = appendJSONString(e.text, lb.name)
	}
	e.label = append(e.label, uint32(len(e.text)))
}

// counters writes the counter registry as an object sorted by name.
func (e *canonWriter) counters(t *Tracer) {
	if t == nil || len(t.counters) == 0 {
		e.buf = append(e.buf, "{}"...)
		return
	}
	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	slices.Sort(names)
	e.buf = append(e.buf, '{')
	for i, name := range names {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, "\n  "...)
		e.buf = appendJSONString(e.buf, name)
		e.buf = append(e.buf, ": "...)
		e.buf = appendInt(e.buf, *t.counters[name])
		e.maybeFlush()
	}
	e.buf = append(e.buf, "\n }"...)
}

// hist writes one non-empty histogram: its moments and its non-empty
// log2 buckets in ascending order. "le" is the bucket's inclusive upper
// bound (MaxInt64 marks the overflow bucket).
func (e *canonWriter) hist(h *Hist) {
	e.buf = append(e.buf, "{\n   \"count\": "...)
	e.buf = strconv.AppendUint(e.buf, h.count, 10)
	e.buf = append(e.buf, ",\n   \"sum\": "...)
	e.buf = appendInt(e.buf, h.sum)
	e.buf = append(e.buf, ",\n   \"min\": "...)
	e.buf = appendInt(e.buf, h.min)
	e.buf = append(e.buf, ",\n   \"max\": "...)
	e.buf = appendInt(e.buf, h.max)
	e.buf = append(e.buf, ",\n   \"buckets\": ["...)
	sep := ""
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		e.buf = append(e.buf, sep...)
		e.buf = append(e.buf, "\n    {\n     \"le\": "...)
		e.buf = appendInt(e.buf, HistBucketUpper(i))
		e.buf = append(e.buf, ",\n     \"n\": "...)
		e.buf = strconv.AppendUint(e.buf, n, 10)
		e.buf = append(e.buf, "\n    }"...)
		sep = ","
	}
	e.buf = append(e.buf, "\n   ]\n  }"...)
}

// span writes span i (ID i+1); "parent" and "attrs" are omitted when
// empty.
func (e *canonWriter) span(i int, s *Span) {
	b := e.buf
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n  {\n   \"id\": "...)
	b = appendInt(b, int64(i+1))
	if s.parent != 0 {
		b = append(b, ",\n   \"parent\": "...)
		b = appendInt(b, int64(s.parent))
	}
	b = append(b, ",\n   "...)
	b = append(b, e.text[e.label[s.label]:e.label[s.label+1]]...)
	b = append(b, ",\n   \"node\": "...)
	b = appendInt(b, int64(s.node))
	b = append(b, ",\n   \"begin_ns\": "...)
	b = appendInt(b, int64(s.begin))
	b = append(b, ",\n   \"end_ns\": "...)
	b = appendInt(b, int64(s.end))
	b = e.attrs(b, s.head)
	e.buf = append(b, "\n  }"...)
}

// instant writes instant i; "attrs" is omitted when empty.
func (e *canonWriter) instant(i int, in *Instant) {
	b := e.buf
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n  {\n   "...)
	b = append(b, e.text[e.label[in.label]:e.label[in.label+1]]...)
	b = append(b, ",\n   \"node\": "...)
	b = appendInt(b, int64(in.node))
	b = append(b, ",\n   \"at_ns\": "...)
	b = appendInt(b, int64(in.at))
	b = e.attrs(b, in.head)
	e.buf = append(b, "\n  }"...)
}

// attrs appends the chain from head as a ",\n   \"attrs\": {…}" object,
// or nothing for an empty chain. On duplicate keys the last write wins,
// as for Tracer.Attr, and keys are sorted bytewise, as encoding/json
// sorts map keys. Chains hold a handful of attributes, so the chain is
// decoded into a reused slice and insertion-sorted by key rank in place
// without allocating: the sorted prefix never overtakes the attribute
// being placed.
func (e *canonWriter) attrs(b []byte, head uint32) []byte {
	if head == 0 {
		return b
	}
	e.keys = e.st.decode(e.keys[:0], head)
	m := 0
	for _, v := range e.keys {
		v.key = e.rank[v.key] // sorted and written by rank from here on
		j := 0
		for j < m && e.keys[j].key < v.key {
			j++
		}
		if j == m || e.keys[j].key != v.key {
			for k := m; k > j; k-- { // a call to copy costs more than these few moves
				e.keys[k] = e.keys[k-1]
			}
			m++
		}
		e.keys[j] = v
	}
	b = append(b, ",\n   \"attrs\": {"...)
	for j, v := range e.keys[:m] {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = append(b, e.text[e.str[v.key]:e.str[v.key+1]]...)
		switch v.kind {
		case attrInt:
			b = append(b, ": \""...)
			b = appendInt(b, int64(v.val))
			b = append(b, '"')
		case attrFloat:
			b = append(b, ": \""...)
			b = strconv.AppendFloat(b, math.Float64frombits(v.val), 'g', -1, 64)
			b = append(b, '"')
		default:
			r := e.rank[v.val]
			b = append(b, ": "...)
			b = append(b, e.text[e.str[r]:e.str[r+1]]...)
		}
	}
	return append(b, "\n   }"...)
}

// appendInt appends v in decimal, as strconv.AppendInt(dst, v, 10)
// does, writing the digits in place. Timestamps run to 13 digits, so it
// takes eight digits at a time and writes each half of them with
// independent 32-bit arithmetic.
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	if u < 10 {
		return append(dst, byte('0'+u))
	}
	t := bits.Len64(u) * 1233 >> 12 // ⌊log10 u⌋ or one less
	if u >= pow10[t] {
		t++
	}
	dst = slices.Grow(dst, t)
	dst = dst[:len(dst)+t]
	b := dst[len(dst)-t:]
	i := len(b)
	for u >= 1e8 {
		q := u / 1e8
		lo := uint32(u - q*1e8)
		hi, lo := lo/1e4, lo%1e4
		i -= 8
		putDigits4(b[i:i+4], hi)
		putDigits4(b[i+4:i+8], lo)
		u = q
	}
	r := uint32(u)
	for r >= 100 {
		q := r / 100
		d := (r - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[d], digitPairs[d+1]
		r = q
	}
	if r >= 10 {
		b[i-2], b[i-1] = digitPairs[r*2], digitPairs[r*2+1]
	} else {
		b[i-1] = byte('0' + r)
	}
	return dst
}

// pow10[i] is 10^i.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putDigits4 writes x < 10,000 as four decimal digits.
func putDigits4(b []byte, x uint32) {
	hi, lo := (x/100)*2, (x%100)*2
	b[0], b[1], b[2], b[3] = digitPairs[hi], digitPairs[hi+1], digitPairs[lo], digitPairs[lo+1]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes it: '"', '\\' and control bytes, the HTML-sensitive '<', '>'
// and '&', U+2028 and U+2029, with invalid UTF-8 replaced by \ufffd.
// A string of plain printable ASCII, which is what the simulator
// records, is copied in one append after a scan.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ChromeEvent is one entry of the Chrome trace-event format
// (ph "M" metadata, "X" complete span, "i" instant, "C" counter).
// Timestamps and durations are microseconds.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeDoc is the top-level Chrome trace-event JSON object.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track layout inside Perfetto: one process per node (pid 0 is the
// master / cluster scope, pid n+1 is worker node n), with one thread
// per span category so migrations, reads and tasks stack on separate
// rows of the same node.
func chromeTID(cat string) (int, string) {
	switch cat {
	case "task":
		return 1, "tasks"
	case "read":
		return 2, "reads"
	case "migration":
		return 3, "migrations"
	case "job":
		return 4, "jobs"
	}
	return 5, "events"
}

func chromePID(node int) int { return node + 1 } // NodeMaster (-1) -> 0

// PerfettoRackCapNodes is the node count above which the Perfetto
// export stops emitting one process per node and aggregates to one
// process per rack (when the tracer knows the topology via
// SetTopology), keeping the node id as an args attribute on every
// event. At 1k+ nodes the per-node convention produces thousands of
// process groups and an unusable UI; per-rack stays navigable to 10k
// nodes.
const PerfettoRackCapNodes = 256

const usPerNS = 1e-3

// ChromeSchema names the format WriteChromeTrace writes: the JSON object
// form of Chrome's Trace Event Format, which Perfetto loads.
const ChromeSchema = "chrome-trace-event/json"

// WriteChromeTrace writes the trace in Chrome trace-event JSON. Spans
// still open at export are clamped to the current virtual instant.
// Span linkage survives the format via args["span"]/args["parent"].
// Above PerfettoRackCapNodes distinct nodes (and with a topology set)
// processes aggregate per rack and args["node"] carries the node id.
// A nil tracer writes the document of an empty one.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return json.NewEncoder(w).Encode(ChromeDoc{DisplayTimeUnit: "ms"})
	}
	now := t.eng.Now()
	doc := ChromeDoc{DisplayTimeUnit: "ms"}

	// Decide the process layout: per node, or per rack above the cap.
	nodes := map[int]bool{}
	for i := range t.spans {
		nodes[t.spans[i].Node()] = true
	}
	t.instants.each(func(_ int, in *Instant) { nodes[in.Node()] = true })
	byRack := len(t.rackOf) > 0 && len(nodes) > PerfettoRackCapNodes
	pidOf := chromePID
	if byRack {
		pidOf = func(node int) int {
			if node < 0 || node >= len(t.rackOf) {
				return 0 // master / unknown topology -> the master process
			}
			return t.rackOf[node] + 1
		}
	}

	// Metadata: name every (process, thread) track actually used.
	type track struct{ pid, tid int }
	pids := map[int]bool{}
	tracks := map[track]string{}
	note := func(node int, cat string) (int, int) {
		pid := pidOf(node)
		tid, tname := chromeTID(cat)
		pids[pid] = true
		tracks[track{pid, tid}] = tname
		return pid, tid
	}
	for i := range t.spans {
		cat, _ := t.Label(t.spans[i].Label())
		note(t.spans[i].Node(), cat)
	}
	t.instants.each(func(_ int, in *Instant) {
		cat, _ := t.Label(in.Label())
		note(in.Node(), cat)
	})
	pidList := make([]int, 0, len(pids))
	for pid := range pids {
		pidList = append(pidList, pid)
	}
	sort.Ints(pidList)
	for _, pid := range pidList {
		name := "master"
		if pid > 0 {
			if byRack {
				name = fmt.Sprintf("rack%d", pid-1)
			} else {
				name = fmt.Sprintf("node%d", pid-1)
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": name},
		})
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "process_sort_index", Ph: "M", PID: pid,
			Args: map[string]string{"sort_index": fmt.Sprint(pid)},
		})
	}
	trackList := make([]track, 0, len(tracks))
	for tr := range tracks {
		trackList = append(trackList, tr)
	}
	sort.Slice(trackList, func(i, j int) bool {
		if trackList[i].pid != trackList[j].pid {
			return trackList[i].pid < trackList[j].pid
		}
		return trackList[i].tid < trackList[j].tid
	})
	for _, tr := range trackList {
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: "thread_name", Ph: "M", PID: tr.pid, TID: tr.tid,
			Args: map[string]string{"name": tracks[tr]},
		})
	}

	for i := range t.spans {
		s := &t.spans[i]
		cat, name := t.Label(s.Label())
		pid, tid := note(s.Node(), cat)
		end := s.end
		args := t.st.attrMap(s.head)
		if args == nil {
			args = map[string]string{}
		}
		args["span"] = fmt.Sprint(i + 1)
		if s.parent != 0 {
			args["parent"] = fmt.Sprint(s.Parent())
		}
		if byRack {
			args["node"] = fmt.Sprint(s.Node())
		}
		if end < 0 {
			end = now
			args["open"] = "true"
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: name, Cat: cat, Ph: "X",
			TS: float64(s.begin) * usPerNS, Dur: float64(end-s.begin) * usPerNS,
			PID: pid, TID: tid, Args: args,
		})
	}
	t.instants.each(func(_ int, in *Instant) {
		cat, name := t.Label(in.Label())
		pid, tid := note(in.Node(), cat)
		args := t.st.attrMap(in.head)
		if byRack {
			if args == nil {
				args = map[string]string{}
			}
			args["node"] = fmt.Sprint(in.Node())
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: name, Cat: cat, Ph: "i", Scope: "t",
			TS: float64(in.at) * usPerNS, PID: pid, TID: tid,
			Args: args,
		})
	})

	// Final counter values as "C" events at the export instant, so the
	// registry shows up as counter tracks.
	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: name, Ph: "C", TS: float64(now) * usPerNS, PID: 0,
			Args: map[string]string{"value": fmt.Sprint(*t.counters[name])},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
