// OpenMetrics text exposition of the tracer's counter and histogram
// registries: the file `dyrs-sim -trace-format openmetrics` writes at
// the end of a run, in the format Prometheus-compatible tools ingest.
//
// The exposition is deterministic: metric families sort by name,
// histogram buckets ascend, and every value derives from virtual-time
// state, so it participates in golden tests like every other export.
package trace

import (
	"fmt"
	"io"
	"sort"
)

// OpenMetricsSchema names the format WriteOpenMetrics writes.
const OpenMetricsSchema = "openmetrics-text/1.0.0"

// openMetricsName sanitizes a registry name ("read.bytes.mem-local")
// into an OpenMetrics metric name ("dyrs_read_bytes_mem_local").
func openMetricsName(name string) string {
	out := make([]byte, 0, len(name)+5)
	out = append(out, "dyrs_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WriteOpenMetrics writes the counter registry, histogram registry and
// clock state in the OpenMetrics text format, terminated by the
// mandatory "# EOF" line.
//
// Registry cells are exposed as gauges (Set gives them gauge
// semantics); histograms use the classic cumulative-bucket histogram
// exposition with nanosecond-scale le bounds. Spans and instants are
// not exposed — metrics are the aggregate surface; traces are the
// causal one.
func (t *Tracer) WriteOpenMetrics(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}

	bw := &errWriter{w: w}
	bw.printf("# TYPE dyrs_virtual_time_ns gauge\n")
	bw.printf("# HELP dyrs_virtual_time_ns Simulation clock at exposition.\n")
	bw.printf("dyrs_virtual_time_ns %d\n", int64(t.eng.Now()))
	if t.sample != nil {
		bw.printf("# TYPE dyrs_trace_sample_n gauge\n")
		bw.printf("dyrs_trace_sample_n %d\n", t.sample.n)
		bw.printf("# TYPE dyrs_trace_sampled_out gauge\n")
		bw.printf("dyrs_trace_sampled_out %d\n", t.sample.out)
	}

	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := openMetricsName(name)
		bw.printf("# TYPE %s gauge\n", m)
		bw.printf("%s %d\n", m, *t.counters[name])
	}

	for _, name := range t.HistNames() {
		h := t.hists[name]
		m := openMetricsName(name)
		bw.printf("# TYPE %s histogram\n", m)
		var cum uint64
		hi := h.maxBucket()
		for i := 0; i <= hi; i++ {
			if h.buckets[i] == 0 {
				continue
			}
			cum += h.buckets[i]
			bw.printf("%s_bucket{le=\"%d\"} %d\n", m, HistBucketUpper(i), cum)
		}
		bw.printf("%s_bucket{le=\"+Inf\"} %d\n", m, h.count)
		bw.printf("%s_sum %d\n", m, h.sum)
		bw.printf("%s_count %d\n", m, h.count)
	}

	bw.printf("# EOF\n")
	return bw.err
}

// errWriter folds write errors so the exposition loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}
