package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The observability invariance contract: a 1-in-N sampled trace is a
// deterministic artifact of (model, seed) alone — scaleshard's data-shard
// count and worker count must not change a byte of it. This test is the
// local version of the CI scale-smoke assertion.

// scaleShardTraceBytes runs the scaleshard smoke preset on a genuinely
// partitioned engine and returns the merged canonical trace bytes.
func scaleShardTraceBytes(t *testing.T, seed int64, dataShards, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	opt := ScaleShardSmokeOptions(seed)
	opt.DataShards = dataShards
	opt.Workers = workers
	opt.SampleEvery = 64
	opt.TraceOut = &buf
	if _, err := RunScaleShard(opt); err != nil {
		t.Fatalf("scaleshard data-shards=%d workers=%d: %v", dataShards, workers, err)
	}
	return buf.Bytes()
}

func TestScaleShardSampledTraceLayoutInvariant(t *testing.T) {
	ref := scaleShardTraceBytes(t, 11, 1, 1)
	if len(ref) == 0 {
		t.Fatal("empty sampled trace")
	}
	for _, tc := range []struct{ dataShards, workers int }{
		{2, 1}, {4, 1}, {4, 8}, {8, 8},
	} {
		got := scaleShardTraceBytes(t, 11, tc.dataShards, tc.workers)
		if !bytes.Equal(ref, got) {
			t.Errorf("sampled trace differs: data-shards=1/workers=1 (%d bytes) vs data-shards=%d/workers=%d (%d bytes)",
				len(ref), tc.dataShards, tc.workers, len(got))
		}
	}
}

// TestScaleShardMergedHistsMatchWholeRun is the end-to-end half of the
// histogram merge differential: the merged per-shard read-latency and
// transfer-size histograms of a genuinely partitioned run must equal
// the single-data-shard run's, bucket for bucket.
func TestScaleShardMergedHistsMatchWholeRun(t *testing.T) {
	type doc struct {
		Hists map[string]struct {
			Count   uint64 `json:"count"`
			Sum     int64  `json:"sum"`
			Buckets []struct {
				Le int64  `json:"le"`
				N  uint64 `json:"n"`
			} `json:"buckets"`
		} `json:"hists"`
	}
	parse := func(b []byte) doc {
		var d doc
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("merged trace is not valid JSON: %v", err)
		}
		return d
	}
	whole := parse(scaleShardTraceBytes(t, 3, 1, 1))
	sharded := parse(scaleShardTraceBytes(t, 3, 4, 4))
	if len(whole.Hists) == 0 {
		t.Fatal("no histograms in trace")
	}
	if whole.Hists["read.latency_ns"].Count == 0 {
		t.Fatal("read.latency_ns histogram is empty")
	}
	for name, w := range whole.Hists {
		s, ok := sharded.Hists[name]
		if !ok {
			t.Errorf("histogram %q missing from sharded run", name)
			continue
		}
		if w.Count != s.Count || w.Sum != s.Sum || len(w.Buckets) != len(s.Buckets) {
			t.Errorf("histogram %q differs: whole {count %d sum %d %d buckets} vs sharded {count %d sum %d %d buckets}",
				name, w.Count, w.Sum, len(w.Buckets), s.Count, s.Sum, len(s.Buckets))
		}
	}
}
