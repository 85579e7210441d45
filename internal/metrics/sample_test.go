package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"testing"
)

// flatSample is the reference Sample is held to: every value in one
// contiguous slice that the sorted queries sort in place, read with the
// arithmetic Sample's accessors are defined by.
type flatSample struct {
	xs     []float64
	sorted bool
	sum    float64
}

func (f *flatSample) add(v float64) {
	f.xs = append(f.xs, v)
	f.sorted = false
	f.sum += v
}

func (f *flatSample) sortedXs() []float64 {
	if !f.sorted {
		sort.Float64s(f.xs)
		f.sorted = true
	}
	return f.xs
}

func (f *flatSample) mean() float64 {
	if len(f.xs) == 0 {
		return 0
	}
	return f.sum / float64(len(f.xs))
}

func (f *flatSample) min() float64 {
	if len(f.xs) == 0 {
		return 0
	}
	return f.sortedXs()[0]
}

func (f *flatSample) max() float64 {
	if len(f.xs) == 0 {
		return 0
	}
	return f.sortedXs()[len(f.xs)-1]
}

func (f *flatSample) percentile(p float64) float64 {
	n := len(f.xs)
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return f.min()
	case p >= 100:
		return f.max()
	}
	xs := f.sortedXs()
	rank := p / 100 * float64(n-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func (f *flatSample) fractionBelow(v float64) float64 {
	if len(f.xs) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(f.sortedXs(), math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(f.xs))
}

// Fuzz ops: each op is one byte. Its top three bits pick the op, the
// low five its operand: an index into sampleValues or samplePercents,
// or, for operand 31 of an add or FractionBelow, a raw float64 in the
// next 8 bytes (zero-padded at the end of the input).
const (
	opAdd = iota << 5
	opAddRun
	opMin
	opMax
	opPercentile
	opFractionBelow
	opMean
	opLen
)

const opRaw = 31

// sampleValues are the operands of opAdd and opFractionBelow: signed
// zeros, infinities, NaNs with different signs and payloads, and values
// that tie.
var sampleValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff8000000c0ffee), 1, -1, 0.5, 2, 3, 1e300, -1e-300, math.SmallestNonzeroFloat64,
}

// samplePercents are the operands of opPercentile, in and out of [0, 100].
var samplePercents = []float64{
	0, -1, 100, 101, 50, 25, 90, 99, 99.9, 0.1, 1e-9, 100 - 1e-9, 100.0 / 3, 200.0 / 3, math.Inf(-1), math.Inf(1),
}

// runLen is how many values one opAddRun adds per unit of its operand,
// so a few runs cross several page boundaries.
const runLen = 37

// FuzzSample applies a decoded op sequence to a Sample and to the flat
// reference, and requires every query to return the same bits: adds
// interleaved with sorted queries, ±0, ±Inf and NaN payloads, and
// logs that cross page boundaries before, between and after queries.
func FuzzSample(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opMin, opMax, opPercentile | 4, opFractionBelow, opMean, opLen})
	// Ties between ±0 and NaNs of every payload, queried, extended, queried again.
	f.Add([]byte{opAdd | 1, opAdd, opAdd | 4, opAdd | 1, opAdd | 5, opAdd, opAdd | 6, opAdd | 7,
		opMin, opMax, opPercentile | 4, opFractionBelow, opFractionBelow | 1, opFractionBelow | 4,
		opAdd | 2, opAdd | 3, opAdd | 1, opAdd, opAdd | 1, opMin, opMax, opPercentile | 5, opMean})
	f.Add([]byte{opAdd | opRaw, 1, 0, 0, 0, 0, 0, 0xf8, 0xff, opAdd | opRaw, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f,
		opAddRun | 3, opFractionBelow | opRaw, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, opPercentile | 11})
	// Long logs: tens of thousands of values over many pages, queried
	// only at the end, at every few thousand values, and between runs.
	f.Add(append(bytes.Repeat([]byte{opAddRun | 30}, 20), opMin, opMax, opPercentile|4, opFractionBelow|10))
	f.Add(bytes.Repeat([]byte{opAddRun | 30, opAddRun | 7, opPercentile | 6, opAdd | 4, opAdd | 1}, 6))
	f.Add(bytes.Repeat([]byte{opAdd | 1, opAdd, opAdd | 9, opAdd | 8, opAdd | 5, opMax}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := NewSample(), &flatSample{}
		operand := func(op byte) float64 {
			if op&opRaw != opRaw {
				return sampleValues[int(op&opRaw)%len(sampleValues)]
			}
			var b [8]byte
			data = data[copy(b[:], data):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		// Go leaves open which operand's payload a NaN sum or product
		// carries, and the compiler orders operands per function, so a
		// result of arithmetic (arith) matches any NaN with any NaN. A
		// value returned as stored must match bit for bit.
		check := func(what string, got, want float64, arith bool) {
			t.Helper()
			if !sameFloat(got, want) && !(arith && math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("after %d values: %s = %v (%#x), want %v (%#x)",
					len(ref.xs), what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op &^ opRaw {
			case opAdd:
				v := operand(op)
				s.Add(v)
				ref.add(v)
			case opAddRun:
				// Integers in [-64, 64) in a scrambled order, with the
				// zeros alternately signed: ties, and ±0 among them.
				for k := 0; k < runLen*(int(op&opRaw)+1); k++ {
					i := len(ref.xs)
					v := float64((i*7919)%128 - 64)
					if v == 0 && i%2 == 1 {
						v = math.Copysign(0, -1)
					}
					s.Add(v)
					ref.add(v)
				}
			case opMin:
				check("Min", s.Min(), ref.min(), false)
			case opMax:
				check("Max", s.Max(), ref.max(), false)
			case opPercentile:
				p := samplePercents[int(op&opRaw)%len(samplePercents)]
				// Between order statistics the result is interpolated.
				rank := p / 100 * float64(len(ref.xs)-1)
				check("Percentile", s.Percentile(p), ref.percentile(p), p > 0 && p < 100 && rank != math.Floor(rank))
			case opFractionBelow:
				v := operand(op)
				check("FractionBelow", s.FractionBelow(v), ref.fractionBelow(v), false)
			case opMean:
				check("Mean", s.Mean(), ref.mean(), true)
			case opLen: // Len is checked after every op
			}
			if s.Len() != len(ref.xs) {
				t.Fatalf("Len %d, added %d", s.Len(), len(ref.xs))
			}
		}
	})
}

// allocBytesPerOp reports the bytes allocated per call of f over n
// calls, from the runtime's cumulative allocation count.
func allocBytesPerOp(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestLogGrowthAllocBytes bounds what a long Sample or TimeSeries
// allocates per Add or Record. Pages never move, so a log allocates
// what it holds plus at most one partly filled last page and the page
// list. Growing one array re-copies the log: doubling allocates about
// twice what it holds, append's 1.25× steps about five times.
func TestLogGrowthAllocBytes(t *testing.T) {
	const n = 100_000
	s := NewSample()
	if got := allocBytesPerOp(n, func(i int) { s.Add(float64(i)) }); got > 9 {
		t.Errorf("Sample.Add allocates %.2f B per 8 B value, want at most 9", got)
	}
	ts := NewTimeSeries("x")
	// A new value at every sample: each is a 32 B run.
	if got := allocBytesPerOp(n, func(i int) { ts.Record(float64(i), float64(i)) }); got > 34 {
		t.Errorf("TimeSeries.Record allocates %.2f B per 32 B run, want at most 34", got)
	}
	if s.Len() != n || runCount(ts) != n {
		t.Fatalf("Len %d, %d runs; want %d each", s.Len(), runCount(ts), n)
	}
}
