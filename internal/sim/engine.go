// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with cancellable timers, and a fluid-flow
// shared-resource model used to simulate disks and network interfaces.
//
// All DYRS experiments run in virtual time on top of this engine, so a
// 20-minute cluster workload simulates in milliseconds and is exactly
// reproducible from its RNG seed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, expressed as nanoseconds since the
// start of the simulation.
type Time int64

// Duration re-exports time.Duration for convenience; all simulation delays
// use ordinary time.Duration values.
type Duration = time.Duration

// Add returns the instant d after t. It saturates at the ends of the
// clock's range instead of wrapping, so a delay too long ever to elapse
// (FloatDuration's saturated result) still lands in the future.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if (s > t) != (d > 0) { // wrapped
		if d > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

// durationRange is 2^63, the first float64 nanosecond count past the
// largest Duration.
const durationRange = float64(1 << 63)

// FloatDuration converts a float count of nanoseconds to a Duration. It
// is the model's one float→Duration conversion: each caller passes its
// float expression in nanoseconds, so an in-range value converts
// exactly as the bare Duration(ns) cast did. A finite value past the
// clock's range saturates instead of wrapping to the far negative end:
// an operation that long never completes within any horizon a run
// uses, and Time.Add keeps scheduling it from overflowing. NaN and ±Inf
// are model bugs and panic.
func FloatDuration(ns float64) Duration {
	if ns < durationRange && ns >= -durationRange {
		return Duration(ns)
	}
	return outOfRange(ns)
}

// outOfRange is FloatDuration's slow path, kept apart so the fast path
// inlines.
func outOfRange(ns float64) Duration {
	if math.IsNaN(ns) || math.IsInf(ns, 0) {
		panic(fmt.Sprintf("sim: non-finite duration of %v ns", ns))
	}
	if ns > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. It is returned by the scheduling methods
// so callers can cancel it before it fires.
//
// The record is 24 bytes with no flag fields: a non-nil fn means the
// event is queued and live. Cancel and the engine's fire path both clear
// fn, so a tombstone, a fired event and a pooled one all read as dead.
//
// Handles are pooled: once an event has fired, the engine recycles the
// Event struct for a later Schedule/At call. A handle is therefore valid
// only until its event fires — cancel before the fire, or drop the
// handle when the callback runs (overwrite it, as Ticker does). Cancel
// is always safe on nil handles, on handles cancelled before firing,
// from within the event's own callback, and on a fired handle the
// engine has not yet handed out again.
type Event struct {
	at  Time
	seq uint64
	fn  func()
}

// compactMin is the queue length below which tombstone compaction is not
// worth an O(n) sweep; dead events that small are cheaper to skim off
// the head as the clock reaches them.
const compactMin = 64

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks.
type Engine struct {
	now    Time
	seq    uint64
	events radixQueue
	// dead counts tombstoned (lazily cancelled) events still in the
	// queue. Cancellation only clears the event's callback; the queue
	// entry is reclaimed when it surfaces, or in bulk by compact() once
	// dead entries outnumber live ones.
	dead    int
	free    eventPool // recycled Event structs; steady state allocates none
	rng     *rand.Rand
	stopped bool
	fired   uint64
	// grouped counts the members beyond the first of every armed
	// multi-member Ticker: each stands for a same-phase ticker whose
	// event the shared one replaces, so Pending reports model events.
	grouped int

	// Sharded-execution fields, nil/zero for a standalone engine. When an
	// engine is one shard of a ShardedEngine, parent coordinates window
	// execution, shard is this engine's index, out stages cross-shard
	// messages until the next barrier, and digest folds the (time, seq)
	// of every executed event so shard-count invariance is checkable
	// without tracing. A standalone engine never touches these fields on
	// its hot path.
	parent *ShardedEngine
	shard  int
	out    []outMsg
	digest uint64

	// tracer is an opaque per-run observability object (internal/trace
	// attaches its Tracer here). The engine itself never calls it — the
	// slot only lets higher layers find the run's tracer through the
	// engine they already hold, without sim importing the trace package.
	tracer any
	// flowSink, when non-nil, observes resource flow admissions and
	// completions. Kept as a separate typed field so the per-flow hook
	// is a plain nil check, not a type assertion.
	flowSink FlowSink
}

// SetTracer attaches an opaque tracing object to the engine for
// retrieval with Tracer. The engine does not interpret it.
func (e *Engine) SetTracer(t any) { e.tracer = t }

// Tracer returns the object attached with SetTracer, or nil.
func (e *Engine) Tracer() any { return e.tracer }

// SetFlowSink installs an observer for resource flow lifecycle events.
// Pass nil to detach. When no sink is installed the flow hot path pays
// only a nil check.
func (e *Engine) SetFlowSink(s FlowSink) { e.flowSink = s }

// NewEngine returns an engine whose randomness derives from seed.
// The same seed always produces the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Model components
// should derive all randomness from it (or from sub-sources created with
// e.Rand().Int63()) so runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// EventsFired reports how many events have executed, mostly for tests and
// performance reporting. Each member a multi-member Ticker runs counts
// as one event.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many live (non-cancelled) events are queued,
// counting a multi-member Ticker's event once per member.
func (e *Engine) Pending() int { return e.events.n - e.dead + e.grouped }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Event may be cancelled.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at instant t. Scheduling in the past panics: it always
// indicates a model bug, and silently clamping would mask it. So does a
// nil fn, which would otherwise read as an already-cancelled event.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: scheduling a nil callback at %v", t))
	}
	ev := e.free.pop(&e.events)
	if ev == nil {
		ev = &Event{}
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.events.push(ev, e.now)
	return ev
}

// Cancel removes ev from the queue if it has not fired. Cancelling a nil,
// fired, or already-cancelled event is a no-op.
//
// Cancellation is lazy: the event is tombstoned in place (O(1)) by
// dropping its callback reference, which also keeps a tombstone from
// pinning model objects (e.g. a stopped Ticker's callback) while it
// waits in the queue. The queue entry is reclaimed when it surfaces — or
// in bulk once tombstones outnumber live events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.fn == nil {
		return // cancelled, firing, fired or pooled
	}
	ev.fn = nil
	e.dead++
	if e.dead*2 > e.events.n && e.events.n >= compactMin {
		e.compact()
	}
}

// compact drops the queue's tombstoned entries in place. Each pass
// reclaims at least half the queue, so the cost amortizes to O(1) per
// cancellation while bounding queue memory at ~2x the live event count.
func (e *Engine) compact() {
	e.events.compact(e.release)
	e.dead = 0
}

// maxFreeEvents caps the recycled-event pool. Without a cap, a burst of
// queued events (datacenter-scale runs hold 10^6-10^7 at once) would pin
// that many Event structs in the pool forever after it drains; beyond the
// cap, drained events are left to the garbage collector.
const maxFreeEvents = 1 << 16

// eventPool is the engine's free list of dead Event structs: a LIFO
// stack of the radix queue's chunks, linked by next below the top one.
// Chunks come from the queue's chunk free list and go back to it as
// they empty, so the pool never copies itself while it grows and holds
// memory only for the events it keeps.
type eventPool struct {
	top  *chunk
	n    int // entries in top; every chunk below it is full
	size int // entries in the pool, at most maxFreeEvents
}

// push adds a dead event, drawing a chunk from q when the top is full,
// or drops it once the pool holds maxFreeEvents.
func (p *eventPool) push(ev *Event, q *radixQueue) {
	if p.size == maxFreeEvents {
		return
	}
	if p.top == nil || p.n == chunkLen {
		k := q.chunk()
		k.next, p.top, p.n = p.top, k, 0
	}
	p.top.evs[p.n] = ev
	p.n++
	p.size++
}

// pop removes and returns the most recently pushed event, or nil when
// the pool is empty. A chunk it empties goes back to q.
func (p *eventPool) pop(q *radixQueue) *Event {
	if p.size == 0 {
		return nil
	}
	p.n--
	p.size--
	ev := p.top.evs[p.n]
	p.top.evs[p.n] = nil
	if p.n == 0 {
		if p.top = q.recycle(p.top, 0); p.top != nil {
			p.n = chunkLen
		}
	}
	return ev
}

// release returns a popped or compacted-away event, whose fn is already
// nil, to the free pool.
func (e *Engine) release(ev *Event) { e.free.push(ev, &e.events) }

// head skims tombstoned events off the front of the queue, without
// advancing the clock or firing anything, and returns the earliest live
// event, or nil when none is queued.
func (e *Engine) head() *Event {
	for e.events.n > 0 {
		ev := e.events.peek()
		if ev.fn != nil {
			return ev
		}
		e.events.popMin()
		e.dead--
		e.release(ev)
	}
	return nil
}

// Stop makes Run return after the current event completes. On a shard
// of a ShardedEngine it stops the whole sharded run, which returns at
// the next window barrier (immediately, for the solo fast path pinned
// models run on); see ShardedEngine.Stop.
func (e *Engine) Stop() {
	if e.parent != nil {
		e.parent.Stop()
		return
	}
	e.stopped = true
}

// Run executes events until the queue drains or Stop is called. On a
// shard of a ShardedEngine it runs the whole sharded simulation, so
// model code holding any shard handle keeps the familiar API.
func (e *Engine) Run() {
	if e.parent != nil {
		e.parent.Run()
		return
	}
	e.stopped = false
	for !e.stopped {
		if e.head() == nil {
			return
		}
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. On a shard of a ShardedEngine it advances the whole
// sharded simulation (every shard clock reaches t unless stopped).
func (e *Engine) RunUntil(t Time) {
	if e.parent != nil {
		e.parent.RunUntil(t)
		return
	}
	e.stopped = false
	for !e.stopped {
		if ev := e.head(); ev == nil || ev.at > t {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor executes events for a span d of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// step fires the head event. Callers skim tombstones first, so the head
// is normally live; the guard covers it anyway for safety.
func (e *Engine) step() {
	ev := e.events.popMin()
	if ev.fn == nil {
		e.dead--
		e.release(ev)
		return
	}
	e.now = ev.at
	e.fired++
	fire(ev)
	e.release(ev)
}

// fire runs a popped live event. It clears fn before the call, so the
// event reads as dead from its own callback on: a Cancel of its handle
// there, or later while it waits in the pool, is a no-op.
func fire(ev *Event) {
	fn := ev.fn
	ev.fn = nil
	fn()
}

// Ticker invokes its callback every interval until cancelled. It is the
// building block for heartbeats and samplers.
//
// A ticker of n members (NewTickerN) runs one round callback per
// interval in place of n tickers started at one instant. The round
// enters the members that have something to do with Visit, in member
// order, and skips the rest. The engine still reports the n model
// events: every member counts in EventsFired, visited or not, and each
// armed member in Pending. Every visited member sees the same clock,
// EventsFired and Pending as under n tickers, and the same order,
// unless member i>0 schedules an event exactly one interval ahead: n
// tickers fire it after members 0..i-1 of the next round, the shared
// event before all of them (DESIGN.md §5).
type Ticker struct {
	eng      *Engine
	interval Duration
	n        int
	round    func(t *Ticker)
	tick     func() // rearming wrapper, allocated once
	ev       *Event
	stopped  bool
	// base is EventsFired before the current round's first member.
	base uint64
}

// NewTicker starts a ticker whose first tick fires after one interval.
func NewTicker(eng *Engine, interval Duration, fn func()) *Ticker {
	return NewTickerN(eng, interval, 1, func(*Ticker) { fn() })
}

// NewTickerN starts a ticker of n members whose first round fires after
// one interval. Each round calls round once, which enters the members
// it runs with Visit, until the ticker stops; a Stop from inside a
// member ends the round.
func NewTickerN(eng *Engine, interval Duration, n int, round func(t *Ticker)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	if n < 1 {
		panic("sim: ticker needs at least one member")
	}
	t := &Ticker{eng: eng, interval: interval, n: n, round: round}
	t.tick = func() {
		t.ev = nil
		t.base = t.eng.fired - 1 // the engine counted the round's event
		t.round(t)
		if !t.stopped {
			t.eng.fired = t.base + uint64(t.n)
			t.ev = t.eng.Schedule(t.interval, t.tick)
		}
	}
	t.ev = eng.Schedule(interval, t.tick)
	eng.grouped += n - 1
	return t
}

// Visit enters member i of the running round, which must come after
// every member the round entered before it: EventsFired then counts
// members 0..i, as it would while member i's own ticker ran. It reports
// false once the ticker has stopped, and the round must then end.
func (t *Ticker) Visit(i int) bool {
	if t.stopped {
		return false
	}
	t.eng.fired = t.base + uint64(i) + 1
	return true
}

// Stop halts the ticker. It is safe to call multiple times and from within
// the tick callback. Stopping drops both the queued event's callback and
// the ticker's own references, so a stopped ticker pins neither its
// callback nor (beyond a tombstone the engine reclaims) any queue memory.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(t.ev)
	t.eng.grouped -= t.n - 1
	t.ev = nil
	t.round = nil
}
