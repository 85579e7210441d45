// Package metrics provides the small statistical toolkit the DYRS
// reproduction uses everywhere: exponentially weighted moving averages
// (the paper's migration-time estimator), sample collections with
// percentile/CDF extraction, fixed-bin histograms, and time-series
// recorders for plotting estimate trajectories (Fig. 9) and memory
// usage (Fig. 7).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// EWMA is an exponentially weighted moving average. Alpha is the weight
// given to each new observation: est = alpha*obs + (1-alpha)*est.
// The zero value is unusable; construct with NewEWMA.
type EWMA struct {
	alpha   float64
	value   float64
	samples int
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe incorporates a new sample. The first sample initializes the
// average directly.
func (e *EWMA) Observe(v float64) {
	if e.samples == 0 {
		e.value = v
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.samples++
}

// Value reports the current average, or 0 before any samples.
func (e *EWMA) Value() float64 { return e.value }

// Samples reports how many observations have been incorporated.
func (e *EWMA) Samples() int { return e.samples }

// Set overrides the current value without counting a sample; used to seed
// an estimator with a prior.
func (e *EWMA) Set(v float64) {
	e.value = v
	if e.samples == 0 {
		e.samples = 1
	}
}

// Sample is an accumulating collection of float64 observations supporting
// summary statistics, percentiles and CDF extraction.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty sample collection.
func NewSample() *Sample { return &Sample{} }

// Add appends an observation.
func (s *Sample) Add(v float64) {
	if len(s.xs) == cap(s.xs) {
		// Double: append grows a long log by only ~1.25× and so
		// re-copies it about four times over.
		s.xs = append(make([]float64, 0, max(2*cap(s.xs), 1)), s.xs...)
	}
	s.xs = append(s.xs, v)
	s.sorted = false
	s.sum += v
}

// AddAll appends many observations.
func (s *Sample) AddAll(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Sum reports the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Min reports the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max reports the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Stddev reports the population standard deviation.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median reports the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// FractionBelow reports the fraction of observations <= v (the empirical
// CDF evaluated at v).
func (s *Sample) FractionBelow(v float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.xs, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(n)
}

// CDFPoint is one point of an empirical CDF: fraction F of observations
// are <= X.
type CDFPoint struct {
	X float64
	F float64
}

// CDF extracts the empirical CDF sampled at n evenly spaced quantiles.
func (s *Sample) CDF(n int) []CDFPoint {
	if s.Len() == 0 || n <= 0 {
		return nil
	}
	pts := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		f := float64(i+1) / float64(n)
		pts[i] = CDFPoint{X: s.Percentile(f * 100), F: f}
	}
	return pts
}

// Values returns a copy of all observations (sorted).
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Histogram counts observations into fixed-width bins over [lo, hi).
// Observations outside the range land in the first or last bin.
type Histogram struct {
	lo, hi float64
	bins   []int
	n      int
}

// NewHistogram creates a histogram with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if hi <= lo || bins <= 0 {
		panic("metrics: invalid histogram parameters")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int, bins)}
}

// Add counts one observation.
func (h *Histogram) Add(v float64) {
	idx := int((v - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
	h.n++
}

// Count reports the total observations.
func (h *Histogram) Count() int { return h.n }

// Bins returns a copy of the per-bin counts.
func (h *Histogram) Bins() []int {
	out := make([]int, len(h.bins))
	copy(out, h.bins)
	return out
}

// BinCenter reports the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.bins))
	return h.lo + (float64(i)+0.5)*w
}

// PDF returns the per-bin probability mass (fractions summing to 1).
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.bins))
	if h.n == 0 {
		return out
	}
	for i, c := range h.bins {
		out[i] = float64(c) / float64(h.n)
	}
	return out
}

// TimePoint is one (time, value) sample of a time series. T is in seconds
// of virtual time.
type TimePoint struct {
	T float64
	V float64
}

// TimeSeries records (time, value) samples, e.g. a slave's migration-time
// estimate over a run (Fig. 9) or per-node buffered bytes (Fig. 7).
//
// Samples are stored as runs: a run holds samples with one value at
// evenly spaced times, so an idle slave's estimate, refreshed every
// heartbeat and unchanged for hours, costs one run. A sample joins the
// last run only when the run gives back exactly what was recorded: the
// same value bits and the same time bits (DESIGN.md §6).
type TimeSeries struct {
	name string
	runs []seriesRun
	n    int
}

// seriesRun is n samples of value v; sample k is at time(k).
type seriesRun struct {
	t0, dt, v float64
	n         int
}

// time reports the time of the run's k-th sample. The first is t0 as
// recorded; the k-th is t0 + k·dt, with the product rounded on its own
// (the explicit conversion forbids fusing it into the add), so Record's
// check and every reader compute the same bits on every platform.
func (r *seriesRun) time(k int) float64 {
	if k == 0 {
		return r.t0
	}
	return r.t0 + float64(float64(k)*r.dt)
}

// point returns the run's k-th sample.
func (r *seriesRun) point(k int) TimePoint { return TimePoint{T: r.time(k), V: r.v} }

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{name: name} }

// Name reports the series label.
func (ts *TimeSeries) Name() string { return ts.name }

// Record appends a sample. Samples should be appended in time order.
func (ts *TimeSeries) Record(t, v float64) {
	ts.n++
	if len(ts.runs) > 0 {
		r := &ts.runs[len(ts.runs)-1]
		if math.Float64bits(r.v) == math.Float64bits(v) {
			if r.n == 1 {
				r.dt = t - r.t0
			}
			if math.Float64bits(r.time(r.n)) == math.Float64bits(t) {
				r.n++
				return
			}
		}
	}
	ts.runs = append(ts.runs, seriesRun{t0: t, v: v, n: 1})
}

// Points returns a copy of the recorded samples.
func (ts *TimeSeries) Points() []TimePoint {
	out := make([]TimePoint, 0, ts.n)
	for i := range ts.runs {
		r := &ts.runs[i]
		for k := 0; k < r.n; k++ {
			out = append(out, r.point(k))
		}
	}
	return out
}

// Len reports the number of samples.
func (ts *TimeSeries) Len() int { return ts.n }

// Last reports the final sample, or a zero TimePoint when empty.
func (ts *TimeSeries) Last() TimePoint {
	if ts.n == 0 {
		return TimePoint{}
	}
	r := &ts.runs[len(ts.runs)-1]
	return r.point(r.n - 1)
}

// MeanValue reports the time-weighted mean of the series, treating each
// sample as holding until the next. Returns the plain mean if fewer than
// two samples exist.
func (ts *TimeSeries) MeanValue() float64 {
	switch ts.n {
	case 0:
		return 0
	case 1:
		return ts.runs[0].v
	}
	var area, span float64
	prev := ts.runs[0].point(0)
	for i := range ts.runs {
		r := &ts.runs[i]
		k := 0
		if i == 0 {
			k = 1
		}
		for ; k < r.n; k++ {
			p := r.point(k)
			dt := p.T - prev.T
			area += prev.V * dt
			span += dt
			prev = p
		}
	}
	if span == 0 {
		return ts.runs[0].v
	}
	return area / span
}

// MaxValue reports the largest sample value.
func (ts *TimeSeries) MaxValue() float64 {
	max := math.Inf(-1)
	for _, r := range ts.runs {
		if r.v > max {
			max = r.v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Downsample returns at most n points evenly spaced through the series,
// always including the final point (n == 1 returns only the final
// point); handy for rendering long series as compact tables.
func (ts *TimeSeries) Downsample(n int) []TimePoint {
	switch {
	case n <= 0 || ts.n == 0:
		return nil
	case ts.n <= n:
		return ts.Points()
	case n == 1:
		return []TimePoint{ts.Last()}
	}
	out := make([]TimePoint, 0, n)
	step := float64(ts.n-1) / float64(n-1)
	// The indices only increase, so one forward walk finds their runs;
	// base is the index of run r's first sample.
	r, base := 0, 0
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		for idx >= base+ts.runs[r].n {
			base += ts.runs[r].n
			r++
		}
		out = append(out, ts.runs[r].point(idx-base))
	}
	return out
}

// Speedup reports the paper's speedup metric: (base-new)/base, as a
// fraction. A negative result means a slowdown.
func Speedup(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}
