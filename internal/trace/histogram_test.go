package trace

import (
	"math"
	"testing"

	"dyrs/internal/sim"
)

func TestHistZeroObservations(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.sum != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram not all-zero: count %d sum %d q50 %v",
			h.Count(), h.sum, h.Quantile(0.5))
	}
	if h.maxBucket() != -1 {
		t.Errorf("maxBucket of empty = %d, want -1", h.maxBucket())
	}
	if _, ok := histDoc(&h); ok {
		t.Error("empty histogram exported; want omitted")
	}
	var nilH *Hist
	nilH.Observe(5) // must not panic
	if nilH.Count() != 0 {
		t.Error("nil histogram counted an observation")
	}
}

func TestHistSingleBucket(t *testing.T) {
	var h Hist
	// 9..15 all land in bucket [8,16): index 4.
	for v := int64(9); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if got := h.buckets[4]; got != 7 {
		t.Errorf("bucket 4 = %d, want 7", got)
	}
	for i := 0; i < HistBuckets; i++ {
		if i != 4 && h.buckets[i] != 0 {
			t.Errorf("bucket %d = %d, want 0", i, h.buckets[i])
		}
	}
	if h.min != 9 || h.max != 15 {
		t.Errorf("min/max = %d/%d, want 9/15", h.min, h.max)
	}
	q := h.Quantile(0.5)
	if q < 8 || q > 15 {
		t.Errorf("q50 = %v, outside the single occupied bucket", q)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3},
		{(1 << 61), 62}, {(1 << 62) - 1, 62},
	}
	for _, c := range cases {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistOverflowBucket(t *testing.T) {
	var h Hist
	h.Observe(1 << 62)       // smallest overflow value
	h.Observe(math.MaxInt64) // largest
	if got := h.buckets[HistBuckets-1]; got != 2 {
		t.Fatalf("overflow bucket = %d, want 2", got)
	}
	if h.maxBucket() != HistBuckets-1 {
		t.Errorf("maxBucket = %d, want %d", h.maxBucket(), HistBuckets-1)
	}
	if HistBucketUpper(HistBuckets-1) != math.MaxInt64 {
		t.Errorf("overflow upper bound = %d, want MaxInt64", HistBucketUpper(HistBuckets-1))
	}
	doc, ok := histDoc(&h)
	if !ok || len(doc.Buckets) != 1 || doc.Buckets[0].Le != math.MaxInt64 || doc.Buckets[0].N != 2 {
		t.Errorf("overflow export = %+v, want single le=MaxInt64 n=2 bucket", doc.Buckets)
	}
}

func TestTracerHistRegistry(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	h := tr.Hist("read.latency_ns")
	if h == nil {
		t.Fatal("nil handle from live tracer")
	}
	if tr.Hist("read.latency_ns") != h {
		t.Error("second Hist call returned a different handle")
	}
	tr.Hist("never.observed")
	h.Observe(100)
	names := tr.HistNames()
	if len(names) != 1 || names[0] != "read.latency_ns" {
		t.Errorf("HistNames = %v, want only the observed histogram", names)
	}

	var nilTr *Tracer
	if nilTr.Hist("x") != nil {
		t.Error("nil tracer returned a non-nil histogram")
	}
	if nilTr.HistNames() != nil {
		t.Error("nil tracer returned histogram names")
	}
}
