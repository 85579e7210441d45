package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

const eps = 1e-6

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowDuration(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	var doneAt Time
	r.Start(200*MB, func(*Flow) { doneAt = e.Now() })
	e.Run()
	if !almostEqual(doneAt.Seconds(), 2.0, 1e-6) {
		t.Errorf("200MB at 100MB/s finished at %vs, want 2s", doneAt.Seconds())
	}
	if got := r.BytesMoved(); got != 200*MB {
		t.Errorf("BytesMoved = %d, want %d", got, 200*MB)
	}
}

func TestFairSharing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	var t1, t2 Time
	r.Start(100*MB, func(*Flow) { t1 = e.Now() })
	r.Start(100*MB, func(*Flow) { t2 = e.Now() })
	e.Run()
	// Two equal flows sharing 100MB/s: both finish at 2s.
	if !almostEqual(t1.Seconds(), 2.0, 1e-6) || !almostEqual(t2.Seconds(), 2.0, 1e-6) {
		t.Errorf("finish times %v, %v; want 2s each", t1, t2)
	}
}

func TestShortFlowSpeedsUpLongFlow(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	var tShort, tLong Time
	r.Start(300*MB, func(*Flow) { tLong = e.Now() })
	r.Start(100*MB, func(*Flow) { tShort = e.Now() })
	e.Run()
	// Shared until short flow done at 2s (50MB/s each); long flow then has
	// 200MB left at full 100MB/s -> finishes at 4s.
	if !almostEqual(tShort.Seconds(), 2.0, 1e-6) {
		t.Errorf("short finished at %v, want 2s", tShort)
	}
	if !almostEqual(tLong.Seconds(), 4.0, 1e-6) {
		t.Errorf("long finished at %v, want 4s", tLong)
	}
}

func TestWeightedSharing(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	var tA Time
	r.StartWeighted(300*MB, 3, func(*Flow) { tA = e.Now() })
	f := r.StartLoad(1)
	e.Run()
	// Weighted 3:1 -> flow A gets 75MB/s -> 4s.
	if !almostEqual(tA.Seconds(), 4.0, 1e-6) {
		t.Errorf("weighted flow finished at %v, want 4s", tA)
	}
	f.Cancel()
}

func TestPersistentLoadHalvesBandwidth(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	load := r.StartLoad(1)
	var done Time
	r.Start(100*MB, func(*Flow) { done = e.Now() })
	e.Run()
	if !almostEqual(done.Seconds(), 2.0, 1e-6) {
		t.Errorf("flow vs persistent load finished at %v, want 2s", done)
	}
	load.Cancel()
	if r.ActiveFlows() != 0 {
		t.Errorf("flows remain after cancel: %d", r.ActiveFlows())
	}
}

func TestCancelLoadRestoresBandwidth(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	load := r.StartLoad(1)
	var done Time
	r.Start(150*MB, func(*Flow) { done = e.Now() })
	e.Schedule(time.Second, func() { load.Cancel() })
	e.Run()
	// First second at 50MB/s -> 100MB left, then full speed 1s -> done at 2s.
	if !almostEqual(done.Seconds(), 2.0, 1e-6) {
		t.Errorf("finished at %v, want 2s", done)
	}
}

func TestSetScale(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	var done Time
	r.Start(100*MB, func(*Flow) { done = e.Now() })
	e.Schedule(500*time.Millisecond, func() { r.SetScale(0.5) })
	e.Run()
	// 0.5s at 100MB/s = 50MB, remaining 50MB at 50MB/s = 1s -> 1.5s total.
	if !almostEqual(done.Seconds(), 1.5, 1e-6) {
		t.Errorf("finished at %v, want 1.5s", done)
	}
	if r.Scale() != 0.5 {
		t.Errorf("scale = %v", r.Scale())
	}
}

func TestSeekEfficiency(t *testing.T) {
	eff := SeekEfficiency(0.25)
	if eff(1) != 1 {
		t.Errorf("eff(1) = %v", eff(1))
	}
	if !almostEqual(eff(2), 0.8, eps) {
		t.Errorf("eff(2) = %v, want 0.8", eff(2))
	}
	if eff(5) >= eff(2) {
		t.Errorf("efficiency not decreasing")
	}

	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), eff)
	var t1 Time
	r.Start(80*MB, func(*Flow) { t1 = e.Now() })
	r.StartLoad(1)
	e.Run()
	// Effective capacity with 2 flows = 80MB/s; fair share 40MB/s -> 2s.
	if !almostEqual(t1.Seconds(), 2.0, 1e-6) {
		t.Errorf("finished at %v, want 2s", t1)
	}
}

func TestFlowCancelMidway(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	done := false
	f := r.Start(100*MB, func(*Flow) { done = true })
	var other Time
	r.Start(100*MB, func(*Flow) { other = e.Now() })
	e.Schedule(time.Second, func() { f.Cancel() })
	e.Run()
	if done {
		t.Error("cancelled flow invoked done callback")
	}
	// Other flow: 1s at 50MB/s, then 50MB at full speed -> 1.5s.
	if !almostEqual(other.Seconds(), 1.5, 1e-6) {
		t.Errorf("other finished at %v, want 1.5s", other)
	}
	f.Cancel() // double-cancel is a no-op
}

func TestUtilizationAndBusyTime(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 100*float64(MB), nil)
	e.Schedule(time.Second, func() { r.Start(100*MB, nil) })
	e.Run() // flow runs 1s..2s
	e.Schedule(2*time.Second, func() {})
	e.Run() // idle 2s..4s
	if got := r.BusyTime(); got != time.Second {
		t.Errorf("busy = %v, want 1s", got)
	}
	if u := r.BusyTime().Seconds() / e.Now().Seconds(); !almostEqual(u, 0.25, 1e-9) {
		t.Errorf("utilization = %v, want 0.25", u)
	}
}

// remaining reports the bytes the flow still has to transfer, as of the
// resource's last accounting advance.
func (f *Flow) remaining() Bytes {
	if f.active {
		return Bytes(math.Ceil(max((f.tag-f.res.vsrv)*f.weight, 0)))
	}
	return Bytes(math.Ceil(f.endRem))
}

// rate reports the flow's transfer rate in bytes/sec (the rate it was
// ending at, for completed or cancelled flows).
func (f *Flow) rate() float64 {
	if !f.active {
		return f.endRate
	}
	r := f.res
	if r.totalW <= 0 {
		return 0
	}
	return r.base * r.scale * r.eff(r.totalW) * f.weight / r.totalW
}

func TestFlowAccessors(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	f := r.Start(100*MB, nil)
	if !f.active {
		t.Error("new flow not active")
	}
	if f.started != 0 {
		t.Errorf("started = %v", f.started)
	}
	e.RunUntil(Time(500 * time.Millisecond))
	r.BytesMoved() // forces advance
	if rem := f.remaining(); rem != 50*MB {
		t.Errorf("remaining = %d, want %d", rem, 50*MB)
	}
	if f.rate() != 100*float64(MB) {
		t.Errorf("rate = %v", f.rate())
	}
	e.Run()
	if f.active {
		t.Error("completed flow still active")
	}
}

func TestResourceValidation(t *testing.T) {
	e := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero capacity", func() { NewResource(e, "x", 0, nil) })
	r := NewResource(e, "x", 1000, nil)
	mustPanic("zero size", func() { r.Start(0, nil) })
	mustPanic("zero weight", func() { r.StartWeighted(1, 0, nil) })
	mustPanic("zero load weight", func() { r.StartLoad(0) })
	mustPanic("zero scale", func() { r.SetScale(0) })
}

// Property: total bytes moved never exceeds capacity × elapsed time, and all
// admitted (non-cancelled) flows eventually complete with conservation of
// bytes.
func TestPropertyConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		capacity := 50*float64(MB) + rng.Float64()*200*float64(MB)
		r := NewResource(e, "disk", capacity, SeekEfficiency(rng.Float64()*0.3))
		n := 3 + rng.Intn(10)
		var wantBytes Bytes
		completed := 0
		for i := 0; i < n; i++ {
			size := Bytes(1+rng.Intn(512)) * MB
			wantBytes += size
			delay := Duration(rng.Int63n(int64(5 * time.Second)))
			e.Schedule(delay, func() {
				r.Start(size, func(*Flow) { completed++ })
			})
		}
		e.Run()
		if completed != n {
			return false
		}
		moved := r.BytesMoved()
		if moved < wantBytes-Bytes(n) || moved > wantBytes+Bytes(n) {
			return false
		}
		// Throughput bound: bytes <= capacity * elapsed (+1% float slack).
		maxBytes := capacity * e.Now().Seconds() * 1.01
		return float64(moved) <= maxBytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with equal weights, flows of equal size admitted at the same
// time complete at the same time.
func TestPropertyFairness(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		r := NewResource(e, "disk", 100*float64(MB), nil)
		n := 2 + rng.Intn(6)
		size := Bytes(1+rng.Intn(256)) * MB
		var finishes []Time
		for i := 0; i < n; i++ {
			r.Start(size, func(*Flow) { finishes = append(finishes, e.Now()) })
		}
		e.Run()
		if len(finishes) != n {
			return false
		}
		for _, f := range finishes {
			if math.Abs(f.Seconds()-finishes[0].Seconds()) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512, "512B"},
		{2 * KB, "2.00KB"},
		{256 * MB, "256.00MB"},
		{3 * GB, "3.00GB"},
		{2 * TB, "2.00TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: weighted fair sharing — two flows with weights w and 1
// receive rates in ratio w:1 (checked via completion times of equal
// sizes).
func TestPropertyWeightedShares(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 0.5 + 3*rng.Float64()
		e := NewEngine(seed)
		r := NewResource(e, "d", 100*float64(MB), nil)
		size := Bytes(1+rng.Intn(128)) * MB
		var tHeavy, tLight Time
		r.StartWeighted(size, w, func(*Flow) { tHeavy = e.Now() })
		load := r.StartLoad(1) // keeps sharing constant for the heavy flow
		r.StartWeighted(size, 1, func(*Flow) { tLight = e.Now() })
		e.RunFor(time.Hour)
		load.Cancel()
		if tHeavy == 0 || tLight == 0 {
			return false
		}
		// While all three flows are active, heavy:light rates are w:1.
		// The heavy flow must finish no later than the light one for
		// w >= 1, and vice versa.
		if w > 1.05 && tHeavy > tLight {
			return false
		}
		if w < 0.95 && tHeavy < tLight {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: SeekEfficiency is non-increasing in load and bounded in (0,1].
func TestPropertySeekEfficiencyMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eff := SeekEfficiency(rng.Float64() * 0.5)
		prev := 1.0
		for load := 0.5; load < 40; load += 0.7 {
			v := eff(load)
			if v <= 0 || v > 1 || v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
