package trace

import (
	"strings"
	"testing"

	"dyrs/internal/sim"
)

// TestWriteOpenMetricsGolden pins the exposition format byte for byte:
// a deterministic workload must always render the identical OpenMetrics
// text. Update the golden only on a deliberate format change.
func TestWriteOpenMetricsGolden(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	eng.Schedule(1500, func() {
		tr.Inc("migration.completed")
		tr.Add("migration.bytes", 1<<20)
		h := tr.Hist("read.latency_ns")
		h.Observe(900)  // bucket [512,1024): le 1023
		h.Observe(1000) // same bucket
		h.Observe(3000) // bucket [2048,4096): le 4095
		h.Observe(0)    // zero bucket: le 0
	})
	eng.Run()

	var sb strings.Builder
	if err := tr.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `# TYPE dyrs_virtual_time_ns gauge
# HELP dyrs_virtual_time_ns Simulation clock at exposition.
dyrs_virtual_time_ns 1500
# TYPE dyrs_migration_bytes gauge
dyrs_migration_bytes 1048576
# TYPE dyrs_migration_completed gauge
dyrs_migration_completed 1
# TYPE dyrs_read_latency_ns histogram
dyrs_read_latency_ns_bucket{le="0"} 1
dyrs_read_latency_ns_bucket{le="1023"} 3
dyrs_read_latency_ns_bucket{le="4095"} 4
dyrs_read_latency_ns_bucket{le="+Inf"} 4
dyrs_read_latency_ns_sum 4900
dyrs_read_latency_ns_count 4
# EOF
`
	if got := sb.String(); got != golden {
		t.Errorf("OpenMetrics exposition drifted.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestWriteOpenMetricsNilAndSampling(t *testing.T) {
	var sb strings.Builder
	var nilTr *Tracer
	if err := nilTr.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "# EOF\n" {
		t.Errorf("nil tracer exposition = %q, want bare EOF", sb.String())
	}

	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.SetSampling(64, 9)
	for i := 0; i < 200; i++ {
		tr.Instant("read", "hit", i%5)
	}
	sb.Reset()
	if err := tr.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "dyrs_trace_sample_n 64\n") {
		t.Error("sampling rate missing from exposition")
	}
	if !strings.Contains(out, "dyrs_trace_sampled_out ") {
		t.Error("sampled-out count missing from exposition")
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("exposition not EOF-terminated")
	}
}

func TestOpenMetricsName(t *testing.T) {
	cases := map[string]string{
		"read.bytes.mem-local": "dyrs_read_bytes_mem_local",
		"flow.started.disk":    "dyrs_flow_started_disk",
		"a:b_c9":               "dyrs_a:b_c9",
	}
	for in, want := range cases {
		if got := openMetricsName(in); got != want {
			t.Errorf("openMetricsName(%q) = %q, want %q", in, got, want)
		}
	}
}
