package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// The flat reference: the samples as recorded, in one slice, read with
// the arithmetic TimeSeries's accessors are defined by.

func flatMean(pts []TimePoint) float64 {
	switch len(pts) {
	case 0:
		return 0
	case 1:
		return pts[0].V
	}
	var area, span float64
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T - pts[i-1].T
		area += pts[i-1].V * dt
		span += dt
	}
	if span == 0 {
		return pts[0].V
	}
	return area / span
}

func flatMax(pts []TimePoint) float64 {
	max := math.Inf(-1)
	for _, p := range pts {
		if p.V > max {
			max = p.V
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

func flatDownsample(pts []TimePoint, n int) []TimePoint {
	switch {
	case n <= 0 || len(pts) == 0:
		return nil
	case len(pts) <= n:
		return append([]TimePoint{}, pts...)
	case n == 1:
		return []TimePoint{pts[len(pts)-1]}
	}
	var out []TimePoint
	step := float64(len(pts)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, pts[int(math.Round(float64(i)*step))])
	}
	return out
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b TimePoint) bool { return sameFloat(a.T, b.T) && sameFloat(a.V, b.V) }

func samePoints(a, b []TimePoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePoint(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstFlat requires every accessor of ts to return, bit for
// bit, what the flat reference gives for the recorded samples.
func checkAgainstFlat(t *testing.T, ts *TimeSeries, flat []TimePoint) {
	t.Helper()
	if ts.Len() != len(flat) {
		t.Fatalf("Len %d, recorded %d", ts.Len(), len(flat))
	}
	if got := ts.Points(); !samePoints(got, flat) {
		t.Fatalf("Points differs from the recorded samples:\n%v\nrecorded:\n%v", got, flat)
	}
	last := TimePoint{}
	if len(flat) > 0 {
		last = flat[len(flat)-1]
	}
	if got := ts.Last(); !samePoint(got, last) {
		t.Fatalf("Last %v, want %v", got, last)
	}
	if got, want := ts.MaxValue(), flatMax(flat); !sameFloat(got, want) {
		t.Fatalf("MaxValue %v, want %v", got, want)
	}
	if got, want := ts.MeanValue(), flatMean(flat); !sameFloat(got, want) {
		t.Fatalf("MeanValue %v, want %v", got, want)
	}
	for _, n := range []int{1, 2, len(flat) - 1, len(flat), len(flat) + 1} {
		if got, want := ts.Downsample(n), flatDownsample(flat, n); !samePoints(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Downsample(%d) of %d samples:\n%v\nwant:\n%v", n, len(flat), got, want)
		}
	}
}

// Fuzz ops: each sample takes one byte. Its low three bits move the
// time, the next three set the value; a raw float64 operand is the
// next 8 bytes (zero-padded at the end of the input).
const (
	opSameT = iota
	opTPlus1
	opTPlusTenth // t0 + k·0.1 drifts away from the summed times
	opTMinusQuarter
	opTNegZero
	opTThird
	opTNegate
	opTRaw
)

const (
	opSameV = iota << 3
	_       // repeats the value too
	opVNegZero
	opVZero
	opVNaN
	opVPlus1
	opVRaw
	opVSignalingNaN
)

// decodeSamples turns fuzz input into the samples to record.
func decodeSamples(data []byte) []TimePoint {
	var pts []TimePoint
	var t, v float64
	raw := func() float64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op & 7 {
		case opTPlus1:
			t++
		case opTPlusTenth:
			t += 0.1
		case opTMinusQuarter:
			t -= 0.25
		case opTNegZero:
			t = math.Copysign(0, -1)
		case opTThird:
			t += 1.0 / 3
		case opTNegate:
			t = -t
		case opTRaw:
			t = raw()
		}
		switch op & (7 << 3) {
		case opVNegZero:
			v = math.Copysign(0, -1)
		case opVZero:
			v = 0
		case opVNaN:
			v = math.NaN()
		case opVPlus1:
			v++
		case opVRaw:
			v = raw()
		case opVSignalingNaN:
			v = math.Float64frombits(0x7ff0000000000001)
		}
		pts = append(pts, TimePoint{T: t, V: v})
	}
	return pts
}

// FuzzTimeSeries records a decoded sample sequence and requires the
// series to read back exactly like the flat []TimePoint reference:
// repeated values, ±0, NaNs, steps whose multiples do not reproduce the
// summed times, equal and decreasing times.
func FuzzTimeSeries(f *testing.F) {
	f.Add([]byte{})
	for _, size := range []int{1023, 1024, 1025, 2049} {
		f.Add(bytes.Repeat([]byte{opTPlus1 | opVPlus1}, size)) // a run per sample
		f.Add(bytes.Repeat([]byte{opTPlus1 | opSameV}, size))  // one run
		f.Add(bytes.Repeat([]byte{opTPlusTenth | opSameV}, size))
	}
	f.Add([]byte{opTNegZero | opVNegZero, opSameT | opVZero, opSameT | opVNegZero, opTPlus1 | opVNegZero,
		opTPlus1 | opVZero, opTNegate | opVZero, opTNegZero | opVZero})
	f.Add([]byte{opTPlus1 | opVNaN, opTPlus1 | opVNaN, opTPlus1 | opVNaN, opTPlus1 | opVSignalingNaN,
		opTPlus1 | opVSignalingNaN, opTPlus1 | opVNaN})
	f.Add([]byte{opTThird, opTThird, opTThird, opTThird, opTThird, opTThird, opSameT, opSameT,
		opTMinusQuarter, opTMinusQuarter, opTMinusQuarter, opTNegate, opTNegate})
	// An infinite first value: the mean's first step must not take 0·∞.
	f.Add([]byte{opTPlus1 | opVRaw, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, opTPlus1, opTPlus1 | opVPlus1})
	f.Add([]byte{opTRaw | opSameV, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, opTPlus1, opTPlus1,
		opTRaw | opVRaw, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0xf0, 0xff, opTPlus1, opTPlus1})

	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodeSamples(data)
		ts := NewTimeSeries("fuzz")
		for i, p := range pts {
			ts.Record(p.T, p.V)
			if ts.Len() != i+1 || !samePoint(ts.Last(), p) {
				t.Fatalf("after sample %d %v: Len %d, Last %v", i, p, ts.Len(), ts.Last())
			}
		}
		checkAgainstFlat(t, ts, pts)
	})
}

// TestTimeSeriesRuns pins the storage property the estimate series
// relies on: an unchanged value at evenly spaced times is one run, and
// a time the run's step cannot reproduce starts a new one.
func TestTimeSeriesRuns(t *testing.T) {
	cases := []struct {
		name string
		at   func(i int) float64
		v    func(i int) float64
		runs int
	}{
		// A slave's estimate, sampled every 1 s heartbeat from 2^40 ns on.
		{"heartbeats", func(i int) float64 { return (time.Duration(1<<40) + time.Duration(i)*time.Second).Seconds() },
			func(int) float64 { return 2.5 }, 1},
		{"same instant", func(int) float64 { return 7 }, func(int) float64 { return 2.5 }, 1},
		{"value changes", func(i int) float64 { return float64(i) }, func(i int) float64 { return float64(i / 250) }, 4},
		{"signed zeros", func(i int) float64 { return float64(i) },
			func(i int) float64 { return math.Copysign(0, float64(1-2*(i/500))) }, 2},
	}
	for _, c := range cases {
		ts := NewTimeSeries(c.name)
		flat := make([]TimePoint, 1000)
		for i := range flat {
			flat[i] = TimePoint{T: c.at(i), V: c.v(i)}
			ts.Record(flat[i].T, flat[i].V)
		}
		if len(ts.runs) != c.runs {
			t.Errorf("%s: %d runs, want %d", c.name, len(ts.runs), c.runs)
		}
		checkAgainstFlat(t, ts, flat)
	}

	// Summed 0.1 steps drift from t0 + k·0.1, so the series splits them
	// into more runs but still returns every recorded time.
	ts := NewTimeSeries("tenths")
	var flat []TimePoint
	for i, at := 0, 0.0; i < 1000; i, at = i+1, at+0.1 {
		flat = append(flat, TimePoint{T: at, V: 1})
		ts.Record(at, 1)
	}
	if len(ts.runs) < 2 {
		t.Errorf("tenths: %d runs; summed steps should not all reproduce", len(ts.runs))
	}
	checkAgainstFlat(t, ts, flat)
}
