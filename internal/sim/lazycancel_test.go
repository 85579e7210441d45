package sim

import (
	"testing"
	"time"
)

// Lazy cancellation must not advance the clock or fire callbacks when the
// queue drains through tombstones.
func TestLazyCancelDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(5*time.Second, func() { t.Error("cancelled event fired") })
	e.Cancel(ev)
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d after cancel, want 0", got)
	}
	e.Run()
	if e.Now() != 0 {
		t.Errorf("draining tombstones advanced the clock to %v", e.Now())
	}
	if e.EventsFired() != 0 {
		t.Errorf("fired = %d, want 0", e.EventsFired())
	}
}

// A tombstone between two live events must be skipped without disturbing
// their order or timestamps.
func TestLazyCancelSkipsTombstonesInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	ev := e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Cancel(ev)
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("fired %v, want [1 3]", got)
	}
	if e.Now() != Time(3*time.Second) {
		t.Errorf("now = %v, want 3s", e.Now())
	}
}

// Pending must count only live events while tombstones linger in the queue.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Second, func() {}))
	}
	for _, ev := range evs[:7] {
		e.Cancel(ev)
	}
	if got := e.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d after drain, want 0", got)
	}
}

// Cancelling an event must immediately drop its callback so tombstones
// waiting in the queue cannot pin model objects.
func TestCancelReleasesCallback(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(time.Hour, func() {})
	e.Cancel(ev)
	if ev.fn != nil {
		t.Error("cancelled event still references its callback")
	}
}

// Mass cancellation must compact the queue: with one live far-future event
// pinned, churning many cancelled events may not grow the queue without
// bound.
func TestCompactionBoundsQueueMemory(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(24*time.Hour, func() {}) // far-future live event pins the queue
	maxLen := 0
	for i := 0; i < 10000; i++ {
		ev := e.Schedule(time.Duration(1+i%100)*time.Minute, func() {})
		e.Cancel(ev)
		if e.events.n > maxLen {
			maxLen = e.events.n
		}
	}
	if maxLen > 2*compactMin {
		t.Errorf("queue grew to %d entries under cancel churn; compaction should bound it near %d", maxLen, compactMin)
	}
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
	e.Run()
	if e.EventsFired() != 1 {
		t.Errorf("fired = %d, want 1", e.EventsFired())
	}
}

// The free pool must recycle Event structs: steady-state scheduling after
// warmup performs no allocations.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	for i := 0; i < 128; i++ { // warm the heap, pool and free list
		e.Schedule(time.Millisecond, nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(time.Millisecond, nop)
		e.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state Schedule+Run allocates %.2f objects/op, want 0", avg)
	}
}

// Cancel-heavy steady state (the rebalance pattern) must also be
// allocation-free.
func TestCancelRescheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	for i := 0; i < 128; i++ {
		e.Schedule(time.Millisecond, nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(200, func() {
		ev := e.Schedule(time.Second, nop)
		e.Cancel(ev)
		e.Schedule(time.Millisecond, nop)
		e.Run()
	})
	if avg != 0 {
		t.Errorf("steady-state cancel+reschedule allocates %.2f objects/op, want 0", avg)
	}
}

// A stopped ticker must neither fire again, nor drift the engine clock,
// nor pin its tombstoned event's callback while the tombstone waits in
// the queue.
func TestTickerStopReleasesEvent(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, time.Hour, func() { n++ })
	ev := tk.ev
	tk.Stop()
	if tk.ev != nil || tk.round != nil {
		t.Error("stopped ticker retains event/callback references")
	}
	if ev.fn != nil {
		t.Error("stopped ticker's tombstone still references the tick closure")
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d after ticker stop, want 0", got)
	}
	e.RunFor(10 * time.Hour)
	if n != 0 {
		t.Errorf("stopped ticker fired %d times", n)
	}
}

// Ticker churn (start+stop) must not leak queue entries: compaction keeps
// the queue bounded even though every stopped ticker leaves a tombstone
// with a distant deadline.
func TestTickerChurnDoesNotLeak(t *testing.T) {
	e := NewEngine(1)
	maxLen := 0
	for i := 0; i < 5000; i++ {
		tk := NewTicker(e, time.Duration(1+i%7)*time.Hour, func() {})
		tk.Stop()
		if e.events.n > maxLen {
			maxLen = e.events.n
		}
	}
	if maxLen > 2*compactMin {
		t.Errorf("ticker churn grew the queue to %d entries; want compaction to bound it near %d", maxLen, compactMin)
	}
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

// Ticks must land on exact interval multiples even when lazy-cancel
// tombstones from unrelated activity share the queue (no drift).
func TestTickerNoDriftUnderCancelChurn(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, time.Second, func() { ticks = append(ticks, e.Now()) })
	defer tk.Stop()
	// Unrelated churn: events scheduled and cancelled around every tick.
	churn := NewTicker(e, 300*time.Millisecond, func() {
		e.Cancel(e.Schedule(700*time.Millisecond, func() {}))
	})
	e.RunUntil(Time(100 * time.Second))
	churn.Stop()
	if len(ticks) != 100 {
		t.Fatalf("ticks = %d, want 100", len(ticks))
	}
	for i, at := range ticks {
		if want := Time(i+1) * Time(time.Second); at != want {
			t.Fatalf("tick %d at %v, want %v (drift)", i, at, want)
		}
	}
}

// Restarting activity after a full drain reuses pooled events; the pool
// must reset state so recycled events fire exactly once at the right time.
func TestEventPoolReuseCorrectness(t *testing.T) {
	e := NewEngine(1)
	for round := 0; round < 5; round++ {
		fired := 0
		for i := 0; i < 50; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
		cancelled := e.Schedule(time.Millisecond, func() { fired += 1000 })
		e.Cancel(cancelled)
		e.Run()
		if fired != 50 {
			t.Fatalf("round %d: fired = %d, want 50", round, fired)
		}
	}
}
