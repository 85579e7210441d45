package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEWMABasics(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.samples != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Errorf("first sample should initialize: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Errorf("after 10,20 with alpha .5: %v, want 15", e.Value())
	}
	if e.samples != 2 {
		t.Errorf("samples = %d", e.samples)
	}
}

func TestEWMASet(t *testing.T) {
	e := NewEWMA(0.3)
	e.Set(42)
	if e.Value() != 42 {
		t.Errorf("Set: %v", e.Value())
	}
	if e.samples != 1 {
		t.Errorf("Set should mark initialized: %d", e.samples)
	}
	e.Observe(42)
	if e.Value() != 42 {
		t.Errorf("steady state drifted: %v", e.Value())
	}
}

func TestEWMAAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
	NewEWMA(1) // boundary ok
}

// Property: EWMA value is always bounded by min/max of observations.
func TestPropertyEWMABounded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEWMA(0.01 + 0.98*rng.Float64())
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			v := rng.Float64() * 1000
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			e.Observe(v)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleStats(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample stats not zero")
	}
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Add(v)
	}
	if s.Len() != 5 || s.sum != 15 || s.Mean() != 3 {
		t.Errorf("len/sum/mean = %d/%v/%v", s.Len(), s.sum, s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 || s.Percentile(50) != 3 {
		t.Errorf("min/max/median = %v/%v/%v", s.Min(), s.Max(), s.Percentile(50))
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", p)
	}
	if p := s.Percentile(25); math.Abs(p-25.75) > 1e-9 {
		t.Errorf("p25 = %v, want 25.75", p)
	}
}

func TestFractionBelow(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	cases := []struct{ v, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.v); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 100} {
		h.Add(v)
	}
	bins := h.bins
	// -1,0,1.9 -> bin0; 2 -> bin1; 5 -> bin2; 9.9,10,100 -> bin4.
	want := []int{3, 1, 1, 0, 3}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
	if h.n != 8 {
		t.Errorf("count = %d", h.n)
	}
	if c := h.BinCenter(0); c != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	pdf := h.PDF()
	var sum float64
	for _, p := range pdf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("PDF sums to %v", sum)
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries("est")
	if ts.Name() != "est" || ts.Len() != 0 {
		t.Error("fresh series wrong")
	}
	if (ts.Last() != TimePoint{}) {
		t.Error("empty Last not zero")
	}
	ts.Record(0, 10)
	ts.Record(1, 20)
	ts.Record(3, 30)
	if ts.Last().V != 30 || ts.Len() != 3 {
		t.Errorf("last/len = %v/%d", ts.Last(), ts.Len())
	}
	// Time-weighted mean: 10*1 + 20*2 over span 3 = 50/3.
	if m := ts.MeanValue(); math.Abs(m-50.0/3) > 1e-12 {
		t.Errorf("MeanValue = %v", m)
	}
}

func TestTimeSeriesDownsample(t *testing.T) {
	ts := NewTimeSeries("x")
	for i := 0; i < 100; i++ {
		ts.Record(float64(i), float64(i))
	}
	d := ts.Downsample(10)
	if len(d) != 10 {
		t.Fatalf("downsample len = %d", len(d))
	}
	if d[0].T != 0 || d[9].T != 99 {
		t.Errorf("endpoints = %v, %v", d[0], d[9])
	}
	if got := ts.Downsample(1000); len(got) != 100 {
		t.Errorf("downsample beyond length should return all: %d", len(got))
	}
	if ts.Downsample(0) != nil {
		t.Error("downsample(0) should be nil")
	}
	flat := make([]TimePoint, 100)
	for i := range flat {
		flat[i] = TimePoint{T: float64(i), V: float64(i)}
	}
	checkAgainstFlat(t, ts, flat)
}

// TestTimeSeriesPagedDownsample checks Downsample and Points at sizes
// around 1,024 and 2,048 points against the flat-slice definition: n
// evenly spaced points ending at the final one, or the whole series when
// it has at most n. Every sample has a new value, so each is its own run.
func TestTimeSeriesPagedDownsample(t *testing.T) {
	for _, size := range []int{1023, 1024, 1025, 2049} {
		ts := NewTimeSeries("x")
		flat := make([]TimePoint, size)
		for i := range flat {
			flat[i] = TimePoint{T: float64(i), V: float64(3*i + 1)}
			ts.Record(flat[i].T, flat[i].V)
		}
		if ts.Len() != size || ts.Last() != flat[size-1] {
			t.Fatalf("size %d: Len %d, Last %v", size, ts.Len(), ts.Last())
		}
		if got := ts.Points(); !reflect.DeepEqual(got, flat) {
			t.Fatalf("size %d: Points differs from the recorded samples", size)
		}
		for _, n := range []int{1, 2, size - 1, size, size + 1} {
			var want []TimePoint
			switch {
			case size <= n:
				want = flat
			case n == 1:
				want = flat[size-1:]
			default:
				step := float64(size-1) / float64(n-1)
				for i := 0; i < n; i++ {
					want = append(want, flat[int(math.Round(float64(i)*step))])
				}
			}
			if got := ts.Downsample(n); !reflect.DeepEqual(got, want) {
				t.Errorf("size %d: Downsample(%d) = %d points, want %d ending at %v",
					size, n, len(got), len(want), want[len(want)-1])
			}
		}
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(100, 67); math.Abs(s-0.33) > 1e-12 {
		t.Errorf("speedup = %v", s)
	}
	if s := Speedup(100, 211); math.Abs(s+1.11) > 1e-12 {
		t.Errorf("slowdown = %v", s)
	}
	if Speedup(0, 5) != 0 {
		t.Error("zero base should return 0")
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPropertyPercentileMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample()
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
