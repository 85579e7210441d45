// Trace-derived summary statistics: the causal numbers the paper's
// evaluation reasons about (achieved lead-time, migration margin) are
// recomputed here purely from recorded spans, demonstrating that the
// trace alone carries the full migration/read timeline.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dyrs/internal/metrics"
)

// Summary aggregates a run's trace into the distributions the paper's
// figures are built from.
type Summary struct {
	Spans    int
	Instants int

	MigrationsRequested int64
	MigrationsCompleted int64
	MigrationsAborted   int64
	MigrationsDropped   int64
	MigrationBytes      int64
	Evictions           int64

	// ReadBytes maps read source ("disk-local", "disk-remote",
	// "mem-local", "mem-remote") to bytes served from it.
	ReadBytes map[string]int64

	// LeadTime: per pinned migration whose block was later read, seconds
	// from the Migrate request to the job's first read of that block —
	// the lead-time Algorithm 1 actually achieved.
	LeadTime *metrics.Sample
	// Margin: seconds from migration pin to that first read. Positive
	// means the block was in memory before the job touched it.
	Margin *metrics.Sample

	// SampleN is the tracer's 1-in-N root sampling rate. Above 1,
	// LeadTime and Margin stay empty: a sampled trace keeps a migration
	// span and its block's first read together only by chance, so its
	// pairs would be few and skewed. The migration.lead_ns and
	// migration.margin_ns histograms stay exact.
	SampleN int
}

// Summarize recomputes summary statistics from the recorded spans and
// counters. Lead-time and margin are derived from span timestamps
// alone: migration spans carry the request ("begin"), pin ("end",
// outcome=pinned) and block attrs; read spans carry the block attr.
func (t *Tracer) Summarize() *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{
		Spans:               len(t.spans),
		Instants:            t.instants.n,
		MigrationsRequested: t.Counter("migration.requested"),
		MigrationsCompleted: t.Counter("migration.completed"),
		MigrationsAborted:   t.Counter("migration.aborted"),
		MigrationsDropped:   t.Counter("migration.dropped"),
		MigrationBytes:      t.Counter("migration.bytes"),
		Evictions:           t.Counter("evictions"),
		ReadBytes:           map[string]int64{},
		LeadTime:            metrics.NewSample(),
		Margin:              metrics.NewSample(),
		SampleN:             t.SampleN(),
	}
	for _, src := range []string{"disk-local", "disk-remote", "mem-local", "mem-remote"} {
		if v := t.Counter("read.bytes." + src); v != 0 {
			s.ReadBytes[src] = v
		}
	}
	if s.SampleN > 1 {
		return s
	}

	// First read instant per block, from read spans.
	firstRead := map[blockRef]int64{}
	for i := range t.spans {
		sp := &t.spans[i]
		if cat, _ := t.Label(sp.Label()); cat != "read" {
			continue
		}
		block, ok := t.block(sp.Attrs())
		if !ok {
			continue
		}
		if at, ok := firstRead[block]; !ok || int64(sp.begin) < at {
			firstRead[block] = int64(sp.begin)
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if cat, name := t.Label(sp.Label()); cat != "migration" || name != "migrate" || sp.Open() {
			continue
		}
		if t.Attr(sp.Attrs(), "outcome") != "pinned" {
			continue
		}
		block, ok := t.block(sp.Attrs())
		if !ok {
			continue
		}
		read, ok := firstRead[block]
		if !ok {
			continue
		}
		const nsPerSec = 1e9
		s.LeadTime.Add(float64(read-int64(sp.begin)) / nsPerSec)
		s.Margin.Add(float64(read-int64(sp.end)) / nsPerSec)
	}
	return s
}

// String renders the summary as an indented multi-line block.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  spans %d, instants %d\n", s.Spans, s.Instants)
	fmt.Fprintf(&b, "  migrations: requested %d, completed %d, aborted %d, dropped %d, evictions %d\n",
		s.MigrationsRequested, s.MigrationsCompleted, s.MigrationsAborted,
		s.MigrationsDropped, s.Evictions)
	srcs := make([]string, 0, len(s.ReadBytes))
	for src := range s.ReadBytes {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	parts := make([]string, len(srcs))
	for i, src := range srcs {
		parts[i] = fmt.Sprintf("%s %.2fGB", src, float64(s.ReadBytes[src])/(1<<30))
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, "  read bytes by path: %s\n", strings.Join(parts, ", "))
	}
	if s.SampleN > 1 {
		fmt.Fprintf(&b, "  lead-time and margin omitted: spans are sampled 1-in-%d (the migration.lead_ns and migration.margin_ns histograms are exact)\n", s.SampleN)
	} else if n := s.LeadTime.Len(); n > 0 {
		fmt.Fprintf(&b, "  achieved lead-time (request->first read, n=%d): p50 %.1fs, p90 %.1fs, mean %.1fs\n",
			n, s.LeadTime.Percentile(50), s.LeadTime.Percentile(90), s.LeadTime.Mean())
		fmt.Fprintf(&b, "  migration margin (pin->first read, n=%d): p50 %.1fs, min %.1fs\n",
			n, s.Margin.Percentile(50), s.Margin.Min())
	}
	return strings.TrimRight(b.String(), "\n")
}

// blockRef identifies a block by its integer ID. Every call site records
// the block as an Int attribute; any other value that is not an
// integer's canonical text is identified by that text.
type blockRef struct {
	id   int64
	text string
}

// block returns the chain's "block" attribute; ok is false when it is
// absent or empty.
func (t *Tracer) block(a Attrs) (b blockRef, ok bool) {
	if id, ok := t.IntAttr(a, "block"); ok {
		return blockRef{id: id}, true
	}
	v := t.Attr(a, "block")
	if v == "" {
		return blockRef{}, false
	}
	if id, err := strconv.ParseInt(v, 10, 64); err == nil && strconv.FormatInt(id, 10) == v {
		return blockRef{id: id}, true
	}
	return blockRef{text: v}, true
}
