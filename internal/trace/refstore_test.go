package trace

// The reference record store: the []Attr-per-record span and instant
// logs the attribute arena replaced, with the exporters and Summarize
// written against them, kept so FuzzTraceStore can replay one program
// into both stores and require identical output. Its canonical export
// is the reflection-based encoding/json document WriteJSON's append
// encoder replaced.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dyrs/internal/metrics"
	"dyrs/internal/sim"
)

// The canonical document model: WriteJSON writes exactly what
// encoding/json writes for a traceDoc with SetIndent("", " ").

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
	// knows what fraction of activity the spans/instants represent.
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

// histsDoc encodes every non-empty histogram of the tracer.
func histsDoc(t *Tracer) map[string]histJSON {
	var out map[string]histJSON
	for name, h := range t.hists {
		if doc, ok := histDoc(h); ok {
			if out == nil {
				out = make(map[string]histJSON)
			}
			out[name] = doc
		}
	}
	return out
}

type refSpan struct {
	ID     int
	Parent int
	Cat    string
	Name   string
	Node   int
	Begin  sim.Time
	End    sim.Time // -1 while open
	Attrs  []Attr
}

func (s *refSpan) Open() bool { return s.End < 0 }

func (s *refSpan) Attr(key string) string { return refAttr(s.Attrs, key) }

type refInstant struct {
	Cat   string
	Name  string
	Node  int
	At    sim.Time
	Attrs []Attr
}

// refAttr returns the value of the last attribute with the given key.
func refAttr(attrs []Attr, key string) string {
	for i := len(attrs) - 1; i >= 0; i-- {
		if attrs[i].Key == key {
			return attrs[i].Value()
		}
	}
	return ""
}

func copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]Attr(nil), attrs...)
}

func refAttrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// refRecorder records spans and instants the old way. It shares its
// tracer's engine, counters, histograms and topology, which the arena
// did not change, and keeps its own sampler and flight ring.
type refRecorder struct {
	t        *Tracer
	sample   *sampleState
	flight   *flightRing
	spans    []refSpan
	instants []refInstant
}

func (r *refRecorder) sampleN() int {
	if r.sample == nil {
		return 1
	}
	return int(r.sample.n)
}

func (r *refRecorder) sampledOut() uint64 {
	if r.sample == nil {
		return 0
	}
	return r.sample.out
}

type refRef struct {
	r   *refRecorder
	idx int
}

func (r *refRecorder) Begin(cat, name string, node int, attrs ...Attr) refRef {
	if r.sample != nil && !r.sample.keep(cat, node) {
		return refRef{}
	}
	return r.begin(cat, name, node, attrs)
}

func (r *refRecorder) begin(cat, name string, node int, attrs []Attr) refRef {
	id := len(r.spans) + 1
	r.spans = append(r.spans, refSpan{
		ID: id, Cat: cat, Name: name, Node: node,
		Begin: r.t.eng.Now(), End: -1, Attrs: copyAttrs(attrs),
	})
	if r.flight != nil {
		r.flight.record(FlightEvent{At: r.t.eng.Now(), Kind: FlightSpanBegin,
			Cat: cat, Name: name, Node: node, Span: id})
	}
	return refRef{r: r, idx: id - 1}
}

func (r *refRecorder) Instant(cat, name string, node int, attrs ...Attr) {
	if r.sample != nil && !r.sample.keep(cat, node) {
		return
	}
	r.instants = append(r.instants, refInstant{
		Cat: cat, Name: name, Node: node, At: r.t.eng.Now(), Attrs: copyAttrs(attrs),
	})
	if r.flight != nil {
		r.flight.record(FlightEvent{At: r.t.eng.Now(), Kind: FlightInstant,
			Cat: cat, Name: name, Node: node})
	}
}

func (s refRef) Child(cat, name string, node int, attrs ...Attr) refRef {
	if s.r == nil {
		return refRef{}
	}
	c := s.r.begin(cat, name, node, attrs)
	s.r.spans[c.idx].Parent = s.r.spans[s.idx].ID
	return c
}

func (s refRef) Annotate(attrs ...Attr) {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.idx]
	sp.Attrs = append(sp.Attrs, attrs...)
}

func (s refRef) End(attrs ...Attr) {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.idx]
	if sp.End >= 0 {
		return
	}
	sp.End = s.r.t.eng.Now()
	sp.Attrs = append(sp.Attrs, attrs...)
	if s.r.flight != nil {
		s.r.flight.record(FlightEvent{At: sp.End, Kind: FlightSpanEnd,
			Cat: sp.Cat, Name: sp.Name, Node: sp.Node, Span: sp.ID})
	}
}

func (r *refRecorder) WriteJSON(w io.Writer) error {
	t := r.t
	doc := traceDoc{
		Schema:   Schema,
		NowNS:    int64(t.eng.Now()),
		Counters: t.Counters(),
		Hists:    histsDoc(t),
		Spans:    make([]spanJSON, len(r.spans)),
		Instants: make([]instantJSON, len(r.instants)),
	}
	if n := r.sampleN(); n > 1 {
		doc.SampleN = n
		doc.SampledOut = r.sampledOut()
	}
	for i, s := range r.spans {
		doc.Spans[i] = spanJSON{
			ID: s.ID, Parent: s.Parent, Cat: s.Cat, Name: s.Name, Node: s.Node,
			BeginNS: int64(s.Begin), EndNS: int64(s.End), Attrs: refAttrMap(s.Attrs),
		}
	}
	for i, in := range r.instants {
		doc.Instants[i] = instantJSON{
			Cat: in.Cat, Name: in.Name, Node: in.Node,
			AtNS: int64(in.At), Attrs: refAttrMap(in.Attrs),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func (r *refRecorder) WriteChromeTrace(w io.Writer) error {
	t := r.t
	now := t.eng.Now()
	doc := ChromeDoc{DisplayTimeUnit: "ms"}

	// Decide the process layout: per node, or per rack above the cap.
	nodes := map[int]bool{}
	for i := range r.spans {
		nodes[r.spans[i].Node] = true
	}
	for i := range r.instants {
		nodes[r.instants[i].Node] = true
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
	for _, s := range r.spans {
		note(s.Node, s.Cat)
	}
	for _, in := range r.instants {
		note(in.Node, in.Cat)
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

	for _, s := range r.spans {
		pid, tid := note(s.Node, s.Cat)
		end := s.End
		args := refAttrMap(s.Attrs)
		if args == nil {
			args = map[string]string{}
		}
		args["span"] = fmt.Sprint(s.ID)
		if s.Parent != 0 {
			args["parent"] = fmt.Sprint(s.Parent)
		}
		if byRack {
			args["node"] = fmt.Sprint(s.Node)
		}
		if end < 0 {
			end = now
			args["open"] = "true"
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: float64(s.Begin) * usPerNS, Dur: float64(end-s.Begin) * usPerNS,
			PID: pid, TID: tid, Args: args,
		})
	}
	for _, in := range r.instants {
		pid, tid := note(in.Node, in.Cat)
		args := refAttrMap(in.Attrs)
		if byRack {
			if args == nil {
				args = map[string]string{}
			}
			args["node"] = fmt.Sprint(in.Node)
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: in.Name, Cat: in.Cat, Ph: "i", Scope: "t",
			TS: float64(in.At) * usPerNS, PID: pid, TID: tid,
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

func (r *refRecorder) Summarize() *Summary {
	t := r.t
	s := &Summary{
		Spans:               len(r.spans),
		Instants:            len(r.instants),
		MigrationsRequested: t.Counter("migration.requested"),
		MigrationsCompleted: t.Counter("migration.completed"),
		MigrationsAborted:   t.Counter("migration.aborted"),
		MigrationsDropped:   t.Counter("migration.dropped"),
		MigrationBytes:      t.Counter("migration.bytes"),
		Evictions:           t.Counter("evictions"),
		ReadBytes:           map[string]int64{},
		LeadTime:            metrics.NewSample(),
		Margin:              metrics.NewSample(),
		SampleN:             r.sampleN(),
	}
	for _, src := range []string{"disk-local", "disk-remote", "mem-local", "mem-remote"} {
		if v := t.Counter("read.bytes." + src); v != 0 {
			s.ReadBytes[src] = v
		}
	}
	if s.SampleN > 1 {
		return s
	}
	firstRead := map[string]int64{}
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Cat != "read" {
			continue
		}
		block := sp.Attr("block")
		if block == "" {
			continue
		}
		if at, ok := firstRead[block]; !ok || int64(sp.Begin) < at {
			firstRead[block] = int64(sp.Begin)
		}
	}
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Cat != "migration" || sp.Name != "migrate" || sp.Open() {
			continue
		}
		if sp.Attr("outcome") != "pinned" {
			continue
		}
		read, ok := firstRead[sp.Attr("block")]
		if !ok {
			continue
		}
		const nsPerSec = 1e9
		s.LeadTime.Add(float64(read-int64(sp.Begin)) / nsPerSec)
		s.Margin.Add(float64(read-int64(sp.End)) / nsPerSec)
	}
	return s
}
