// Merged canonical export for partitioned models: a genuinely sharded
// run (scaleshard) records one Tracer per data shard, and this file
// folds them into a single canonical document whose bytes are
// independent of how many shards the model was partitioned into.
//
// The invariance argument mirrors the sampler's: every node is homed on
// exactly one shard, and its records appear in that shard's tracer in a
// deterministic order at any layout. Sorting all records by
// (virtual time, node, per-(shard,node) record ordinal) therefore
// produces the same sequence whether the nodes were spread over 2 data
// shards or 8 — and counters/histograms merge commutatively. Span IDs
// are reassigned in merged order and parent links remapped, so the
// document is self-consistent like a single-tracer export.
package trace

import (
	"encoding/json"
	"io"
	"sort"

	"dyrs/internal/sim"
)

// mergedRec orders one span or instant across tracers.
type mergedRec struct {
	at   sim.Time
	node int
	ord  uint64 // per-(tracer, node) record ordinal
	tr   int    // tracer index — tiebreak of last resort only
	idx  int    // index into the tracer's span/instant slice
}

func mergedLess(a, b mergedRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.node != b.node {
		return a.node < b.node
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	return a.tr < b.tr
}

// WriteMergedJSON writes the canonical trace document merged from the
// given tracers (nil entries are skipped). NowNS is the maximum virtual
// clock across the tracers' engines.
func WriteMergedJSON(w io.Writer, tracers ...*Tracer) error {
	live := make([]*Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}

	doc := traceDoc{Schema: Schema, Counters: map[string]int64{}}
	var now sim.Time
	merged := make(map[string]*Hist)
	var spanRecs, instRecs []mergedRec
	for ti, t := range live {
		if t.eng.Now() > now {
			now = t.eng.Now()
		}
		if n := t.SampleN(); n > doc.SampleN && n > 1 {
			doc.SampleN = n
		}
		doc.SampledOut += t.SampledOut()
		for name, p := range t.counters {
			doc.Counters[name] += *p
		}
		for name, h := range t.hists {
			m := merged[name]
			if m == nil {
				m = &Hist{}
				merged[name] = m
			}
			m.Merge(h)
		}
		ord := map[int]uint64{}
		for i := range t.spans {
			s := &t.spans[i]
			spanRecs = append(spanRecs, mergedRec{at: s.begin, node: s.Node(), ord: ord[s.Node()], tr: ti, idx: i})
			ord[s.Node()]++
		}
		ord = map[int]uint64{}
		for i := range t.instants {
			in := &t.instants[i]
			instRecs = append(instRecs, mergedRec{at: in.at, node: in.Node(), ord: ord[in.Node()], tr: ti, idx: i})
			ord[in.Node()]++
		}
	}
	doc.NowNS = int64(now)
	for name, h := range merged {
		if hd, ok := histDoc(h); ok {
			if doc.Hists == nil {
				doc.Hists = make(map[string]histJSON)
			}
			doc.Hists[name] = hd
		}
	}

	sort.Slice(spanRecs, func(i, j int) bool { return mergedLess(spanRecs[i], spanRecs[j]) })
	sort.Slice(instRecs, func(i, j int) bool { return mergedLess(instRecs[i], instRecs[j]) })

	// Reassign span IDs in merged order; remap parents per tracer.
	newID := make([]map[int]int, len(live))
	for i := range newID {
		newID[i] = map[int]int{}
	}
	for i, r := range spanRecs {
		newID[r.tr][live[r.tr].spans[r.idx].ID()] = i + 1
	}
	doc.Spans = make([]spanJSON, len(spanRecs))
	for i, r := range spanRecs {
		s := &live[r.tr].spans[r.idx]
		parent := 0
		if s.parent != 0 {
			parent = newID[r.tr][s.Parent()]
		}
		doc.Spans[i] = s.json(i+1, parent)
	}
	doc.Instants = make([]instantJSON, len(instRecs))
	for i, r := range instRecs {
		doc.Instants[i] = live[r.tr].instants[r.idx].json()
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteMergedOpenMetrics writes the OpenMetrics exposition of the
// merged counter and histogram registries of the given tracers.
func WriteMergedOpenMetrics(w io.Writer, tracers ...*Tracer) error {
	agg := &Tracer{counters: map[string]*int64{}, hists: map[string]*Hist{}}
	var now sim.Time
	var eng *sim.Engine
	var sampleN uint64
	var sampledOut uint64
	for _, t := range tracers {
		if t == nil {
			continue
		}
		if t.eng.Now() >= now {
			now = t.eng.Now()
			eng = t.eng
		}
		if t.sample != nil {
			sampleN = t.sample.n
			sampledOut += t.sample.out
		}
		for name, p := range t.counters {
			cell := agg.counters[name]
			if cell == nil {
				cell = new(int64)
				agg.counters[name] = cell
			}
			*cell += *p
		}
		for name, h := range t.hists {
			agg.Hist(name).Merge(h)
		}
	}
	if eng == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	agg.eng = eng
	if sampleN > 1 {
		agg.sample = &sampleState{n: sampleN, out: sampledOut}
	}
	return agg.WriteOpenMetrics(w)
}
