package sim

import (
	"math"
	"testing"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Second) {
		t.Errorf("now = %v, want 3s", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again or cancelling nil must not panic.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(2*time.Second, func() { fired = true })
	e.Schedule(1*time.Second, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(0, func() {})
}

// A nil callback panics at the At call that passes it, not when the
// event fires: a queued nil fn would read as a tombstone the dead count
// never saw.
func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil callback did not panic")
		}
		if e.Pending() != 0 {
			t.Errorf("Pending = %d after the rejected At, want 0", e.Pending())
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(time.Second, func() { n++ })
	e.Schedule(10*time.Second, func() { n++ })
	e.RunUntil(Time(5 * time.Second))
	if n != 1 {
		t.Errorf("fired %d events, want 1", n)
	}
	if e.Now() != Time(5*time.Second) {
		t.Errorf("now = %v, want 5s", e.Now())
	}
	e.Run()
	if n != 2 {
		t.Errorf("fired %d events total, want 2", n)
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run()
	n := 0
	e.Schedule(2*time.Second, func() { n++ })
	e.RunFor(3 * time.Second)
	if n != 1 {
		t.Errorf("RunFor missed event scheduled within window")
	}
	if e.Now() != Time(4*time.Second) {
		t.Errorf("now = %v, want 4s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(1*time.Second, func() { n++; e.Stop() })
	e.Schedule(2*time.Second, func() { n++ })
	e.Run()
	if n != 1 {
		t.Errorf("Stop did not halt the run: fired %d", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Errorf("second Run did not resume: fired %d", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var draws []int64
		var rec func()
		rec = func() {
			draws = append(draws, e.Rand().Int63n(1000))
			if len(draws) < 20 {
				e.Schedule(Duration(e.Rand().Int63n(int64(time.Second))), rec)
			}
		}
		e.Schedule(0, rec)
		e.Run()
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, time.Second, func() { n++ })
	e.RunUntil(Time(5500 * time.Millisecond))
	if n != 5 {
		t.Errorf("ticks = %d, want 5", n)
	}
	tk.Stop()
	e.RunFor(10 * time.Second)
	if n != 5 {
		t.Errorf("ticker fired after Stop: %d", n)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(e, time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Duration(i)*time.Second, func() {})
	}
	ev := e.Schedule(100*time.Second, func() {})
	e.Cancel(ev)
	e.Run()
	if e.EventsFired() != 7 {
		t.Errorf("fired = %d, want 7", e.EventsFired())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(90 * time.Second)
	if tm.Seconds() != 90 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(30*time.Second)) != 60*time.Second {
		t.Errorf("Sub wrong")
	}
	if tm.String() != "1m30s" {
		t.Errorf("String = %q", tm.String())
	}
}

// TestFloatDuration: in range the conversion is the bare cast; past the
// clock's range it saturates, and so does Time.Add, so the saturated
// delay stays in the future, for a sharded run too; NaN and ±Inf panic.
func TestFloatDuration(t *testing.T) {
	for _, c := range []struct {
		ns   float64
		want Duration
	}{
		{1.9, 1}, {-1.9, -1}, {1.5e9, 1.5e9}, {-(1 << 63), math.MinInt64},
		{1 << 63, math.MaxInt64}, {1e300, math.MaxInt64}, {-1e19, math.MinInt64},
	} {
		if got := FloatDuration(c.ns); got != c.want {
			t.Errorf("FloatDuration(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
	for _, ns := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FloatDuration(%v) did not panic", ns)
				}
			}()
			FloatDuration(ns)
		}()
	}
	if Time(5).Add(math.MaxInt64) != math.MaxInt64 || Time(-5).Add(math.MinInt64) != math.MinInt64 {
		t.Error("Time.Add wraps instead of saturating")
	}

	// Both shards' heads sit at the clock's end: the window cap saturates
	// with them, so Run still drains.
	se := NewShardedEngine(1, 2, time.Millisecond)
	fired := 0
	for i := 0; i < 2; i++ {
		se.Shard(i).Schedule(FloatDuration(1e30), func() { fired++ })
	}
	if se.RunUntil(1e18); fired != 0 {
		t.Errorf("%d overlong delays fired within 1e18ns", fired)
	}
	if se.Run(); fired != 2 {
		t.Errorf("sharded run fired %d of 2 events at the clock's end", fired)
	}
}
