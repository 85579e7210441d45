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
	"io"
	"sort"

	"dyrs/internal/sim"
)

// mergedRec names one span or instant of a canonical export: tr
// indexes the exported tracers and idx that tracer's span or instant
// slice. The merged export sorts by the other fields.
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
	var spans, instants []mergedRec
	for ti, t := range live {
		ord := map[int]uint64{}
		for i := range t.spans {
			s := &t.spans[i]
			spans = append(spans, mergedRec{at: s.begin, node: s.Node(), ord: ord[s.Node()], tr: ti, idx: i})
			ord[s.Node()]++
		}
		ord = map[int]uint64{}
		for i := range t.instants {
			in := &t.instants[i]
			instants = append(instants, mergedRec{at: in.at, node: in.Node(), ord: ord[in.Node()], tr: ti, idx: i})
			ord[in.Node()]++
		}
	}
	sort.Slice(spans, func(i, j int) bool { return mergedLess(spans[i], spans[j]) })
	sort.Slice(instants, func(i, j int) bool { return mergedLess(instants[i], instants[j]) })
	return writeDoc(w, live, spans, instants)
}
