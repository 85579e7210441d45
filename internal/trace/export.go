// Trace export: a canonical JSON document (schema dyrs-trace/v2,
// deterministic and byte-identical across runs at the same seed, in the
// style of the dyrs-bench timing documents) and Chrome trace-event
// JSON loadable in Perfetto or chrome://tracing.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dyrs/internal/sim"
)

// Schema versions the canonical trace document layout. v2 added the
// streaming histogram section and the sampling-rate self-description
// (both omitted when unused, so an unsampled histogram-free v2 document
// is byte-identical to v1 apart from this field).
const Schema = "dyrs-trace/v2"

type spanJSON struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Cat     string            `json:"cat"`
	Name    string            `json:"name"`
	Node    int               `json:"node"`
	BeginNS int64             `json:"begin_ns"`
	EndNS   int64             `json:"end_ns"` // -1: still open at export
	Attrs   map[string]string `json:"attrs,omitempty"`
}

type instantJSON struct {
	Cat   string            `json:"cat"`
	Name  string            `json:"name"`
	Node  int               `json:"node"`
	AtNS  int64             `json:"at_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type traceDoc struct {
	Schema  string `json:"schema"`
	NowNS   int64  `json:"now_ns"`             // virtual clock at export
	SampleN int    `json:"sample_n,omitempty"` // 1-in-N root sampling; absent = full fidelity
	// SampledOut counts root records the sampler dropped, so a reader
	// knows what fraction of activity the spans/instants represent. The
	// count is layout-invariant (drops are per (cat,node) ordinal).
	SampledOut uint64              `json:"sampled_out,omitempty"`
	Counters   map[string]int64    `json:"counters"`
	Hists      map[string]histJSON `json:"hists,omitempty"`
	Spans      []spanJSON          `json:"spans"`
	Instants   []instantJSON       `json:"instants"`
}

// histJSON is the canonical encoding of one streaming histogram: the
// moments plus the non-empty log2 buckets in ascending order. "le" is
// the bucket's inclusive upper bound (MaxInt64 marks the overflow
// bucket).
type histJSON struct {
	Count   uint64           `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets []histBucketJSON `json:"buckets"`
}

type histBucketJSON struct {
	Le int64  `json:"le"`
	N  uint64 `json:"n"`
}

// histDoc encodes a histogram for export; nil for an empty histogram,
// so never-observed registered handles don't clutter the document.
func histDoc(h *Hist) (histJSON, bool) {
	hi := h.maxBucket()
	if hi < 0 {
		return histJSON{}, false
	}
	out := histJSON{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i := 0; i <= hi; i++ {
		if h.buckets[i] == 0 {
			continue
		}
		out.Buckets = append(out.Buckets, histBucketJSON{Le: HistBucketUpper(i), N: h.buckets[i]})
	}
	return out, true
}

// histsDoc folds the tracers' histograms by name and encodes every
// non-empty result.
func histsDoc(live []*Tracer) map[string]histJSON {
	merged := make(map[string]*Hist)
	for _, t := range live {
		for name, h := range t.hists {
			m := merged[name]
			if m == nil {
				m = &Hist{}
				merged[name] = m
			}
			m.Merge(h)
		}
	}
	var out map[string]histJSON
	for name, h := range merged {
		if doc, ok := histDoc(h); ok {
			if out == nil {
				out = make(map[string]histJSON)
			}
			out[name] = doc
		}
	}
	return out
}

// json encodes the span for the canonical document under the given
// (possibly reassigned) ID and parent.
func (s *Span) json(id, parent int) spanJSON {
	return spanJSON{
		ID: id, Parent: parent, Cat: s.Cat(), Name: s.Name(), Node: s.Node(),
		BeginNS: int64(s.begin), EndNS: int64(s.end), Attrs: s.st.attrMap(s.head),
	}
}

// json encodes the instant for the canonical document.
func (in *Instant) json() instantJSON {
	return instantJSON{
		Cat: in.Cat(), Name: in.Name(), Node: in.Node(),
		AtNS: int64(in.at), Attrs: in.st.attrMap(in.head),
	}
}

// WriteJSON writes the canonical trace document. Every field derives
// from virtual time, seeded randomness or record order, and
// encoding/json sorts map keys, so identical seeds produce
// byte-identical documents. A nil tracer writes the document of an
// empty one at time 0.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var live []*Tracer
	if t != nil {
		live = []*Tracer{t}
	}
	return writeDoc(w, live, inRecordOrder(len(t.Spans())), inRecordOrder(len(t.Instants())))
}

// inRecordOrder lists the first n records of a lone tracer in the order
// it recorded them.
func inRecordOrder(n int) []mergedRec {
	recs := make([]mergedRec, n)
	for i := range recs {
		recs[i].idx = i
	}
	return recs
}

// writeDoc writes the canonical document of the live tracers with their
// spans and instants in the given order. Counters and histograms are
// summed by name and the clock is the latest of the tracers'. Span IDs
// are reassigned in order (the i-th span gets ID i+1) and parents
// remapped per tracer, so the document is self-consistent; one tracer
// in record order keeps its own IDs.
func writeDoc(w io.Writer, live []*Tracer, spans, instants []mergedRec) error {
	doc := traceDoc{Schema: Schema, Counters: map[string]int64{}, Hists: histsDoc(live)}
	var now sim.Time
	for _, t := range live {
		now = max(now, t.eng.Now())
		if n := t.SampleN(); n > doc.SampleN && n > 1 {
			doc.SampleN = n
		}
		doc.SampledOut += t.SampledOut()
		for name, p := range t.counters {
			doc.Counters[name] += *p
		}
	}
	doc.NowNS = int64(now)

	// newID[tr][i] is the exported ID of span i of tracer tr.
	newID := make([][]int32, len(live))
	for tr, t := range live {
		newID[tr] = make([]int32, len(t.spans))
	}
	for i, r := range spans {
		newID[r.tr][r.idx] = int32(i + 1)
	}
	doc.Spans = make([]spanJSON, len(spans))
	for i, r := range spans {
		s := &live[r.tr].spans[r.idx]
		parent := 0
		if s.parent != 0 {
			parent = int(newID[r.tr][s.parent-1])
		}
		doc.Spans[i] = s.json(i+1, parent)
	}
	doc.Instants = make([]instantJSON, len(instants))
	for i, r := range instants {
		doc.Instants[i] = live[r.tr].instants[r.idx].json()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
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
	for i := range t.instants {
		nodes[t.instants[i].Node()] = true
	}
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
		note(t.spans[i].Node(), t.spans[i].Cat())
	}
	for i := range t.instants {
		note(t.instants[i].Node(), t.instants[i].Cat())
	}
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
		pid, tid := note(s.Node(), s.Cat())
		end := s.end
		args := s.st.attrMap(s.head)
		if args == nil {
			args = map[string]string{}
		}
		args["span"] = fmt.Sprint(s.ID())
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
			Name: s.Name(), Cat: s.Cat(), Ph: "X",
			TS: float64(s.begin) * usPerNS, Dur: float64(end-s.begin) * usPerNS,
			PID: pid, TID: tid, Args: args,
		})
	}
	for i := range t.instants {
		in := &t.instants[i]
		pid, tid := note(in.Node(), in.Cat())
		args := in.st.attrMap(in.head)
		if byRack {
			if args == nil {
				args = map[string]string{}
			}
			args["node"] = fmt.Sprint(in.Node())
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: in.Name(), Cat: in.Cat(), Ph: "i", Scope: "t",
			TS: float64(in.at) * usPerNS, PID: pid, TID: tid,
			Args: args,
		})
	}

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
