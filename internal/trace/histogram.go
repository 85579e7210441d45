// Streaming log2 histograms: the fixed-memory metric type behind read
// latency, migration lead-time/margin, transfer size and queue depth
// distributions at datacenter scale. A histogram is a fixed array of 64
// power-of-two buckets aggregated online — no span or sample is ever
// retained — so observing ten million reads costs the same memory as
// observing ten. Bucket boundaries are value-independent (pure log2).
package trace

import (
	"math/bits"
	"sort"
)

// HistBuckets is the fixed bucket count of every histogram.
//
// Bucket 0 holds non-positive observations ("zero bucket"); bucket i
// (1 <= i < HistBuckets-1) holds v with 2^(i-1) <= v < 2^i; the last
// bucket is the overflow bucket, holding everything at or above
// 2^(HistBuckets-2). With int64 observations the overflow bucket is
// reachable only by values >= 2^62 — about 146 years in nanoseconds —
// so in practice it stays empty and exists to make the scheme total.
const HistBuckets = 64

// Hist is a fixed-bucket log2 streaming histogram. The zero value is
// ready to use; a nil *Hist is valid and ignores observations, so call
// sites cache a handle from Tracer.Hist once and observe
// unconditionally, exactly like the nil-tracer pattern.
//
// Histograms are metrics, not traces: they are aggregated from every
// observation and are never subject to span sampling.
type Hist struct {
	count   uint64
	sum     int64
	min     int64
	max     int64
	buckets [HistBuckets]uint64
}

// histBucket maps an observation to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i > HistBuckets-1 {
		i = HistBuckets - 1
	}
	return i
}

// HistBucketUpper reports the inclusive upper bound of bucket i:
// 0 for the zero bucket, 2^i - 1 for the middle buckets, and
// MaxInt64 for the overflow bucket.
func HistBucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= HistBuckets-1:
		return int64(^uint64(0) >> 1) // MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// Observe folds one value into the histogram. Nil-safe no-op.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
}

// Count reports the number of observations (0 for nil).
func (h *Hist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// maxBucket reports the highest non-empty bucket index, or -1 when the
// histogram is empty. Exports use it to trim trailing empty buckets.
func (h *Hist) maxBucket() int {
	if h == nil {
		return -1
	}
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.buckets[i] != 0 {
			return i
		}
	}
	return -1
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly inside the selected bucket — the
// standard streaming-histogram estimate, exact to within one bucket
// width (a factor of two).
func (h *Hist) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i := 0; i < HistBuckets; i++ {
		n := float64(h.buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := float64(HistBucketUpper(i))
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(h.max)
}

// --- tracer histogram registry ---

// Hist returns (creating on first use) the named histogram handle. The
// handle from a nil tracer is nil, and a nil *Hist ignores Observe, so
// components cache the handle once at construction and observe
// unconditionally. Histograms with zero observations are omitted from
// exports, so registering a handle that never observes is free.
func (t *Tracer) Hist(name string) *Hist {
	if t == nil {
		return nil
	}
	h := t.hists[name]
	if h == nil {
		h = &Hist{}
		t.hists[name] = h
	}
	return h
}

// HistNames reports the registered histogram names with at least one
// observation, sorted — the deterministic iteration order every export
// uses.
func (t *Tracer) HistNames() []string {
	if t == nil {
		return nil
	}
	names := make([]string, 0, len(t.hists))
	for name, h := range t.hists {
		if h.count > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
