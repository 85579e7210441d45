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
	"math/rand"
	"time"
)

// Time is an instant in virtual time, expressed as nanoseconds since the
// start of the simulation.
type Time int64

// Duration re-exports time.Duration for convenience; all simulation delays
// use ordinary time.Duration values.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. It is returned by the scheduling methods
// so callers can cancel it before it fires.
//
// Handles are pooled: once an event has fired, the engine recycles the
// Event struct for a later Schedule/At call. A handle is therefore valid
// only until its event fires — cancel before the fire, or drop the
// handle when the callback runs (overwrite it, as Ticker does). Cancel
// is always safe on nil handles, on handles cancelled before firing, and
// from within the event's own callback.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	queued    bool // in the queue (live or tombstoned)
	cancelled bool
}

// At reports the instant the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// eventLess orders events by time, breaking ties by scheduling order so
// the simulation is deterministic.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap specialized to *Event, in strict
// (time, seq) pop order. The engine's queue is the radix heap in
// radix.go; this heap holds only the events scheduled below the radix
// heap's base (see radixQueue). Lazy cancellation means no
// remove-by-index is ever needed, so sifting uses cheap hole moves with
// a single final write instead of index-maintaining swaps.
type eventQueue []*Event

// heapArity is the heap fan-out; pop order is arity-independent.
const heapArity = 4

func (q *eventQueue) push(ev *Event) {
	ev.queued = true
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest event. The queue must be
// non-empty.
func (q *eventQueue) popMin() *Event {
	evs := *q
	root := evs[0]
	n := len(evs) - 1
	last := evs[n]
	evs[n] = nil
	*q = evs[:n]
	if n > 0 {
		evs[0] = last
		q.siftDown(0)
	}
	root.queued = false
	return root
}

func (q eventQueue) siftUp(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	ev := q[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if eventLess(q[c], q[min]) {
				min = c
			}
		}
		if !eventLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ev
}

// reinit restores the heap invariant after bulk filtering (Floyd's
// heap-construction, O(n)).
func (q eventQueue) reinit() {
	if len(q) < 2 {
		return
	}
	for i := (len(q) - 2) / heapArity; i >= 0; i-- {
		q.siftDown(i)
	}
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
	// queue. Cancellation only flags the event; the queue entry is
	// reclaimed when it surfaces, or in bulk by compact() once dead
	// entries outnumber live ones.
	dead    int
	free    []*Event // recycled Event structs; steady state allocates none
	rng     *rand.Rand
	stopped bool
	fired   uint64

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
// performance reporting.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending reports how many live (non-cancelled) events are queued.
func (e *Engine) Pending() int { return e.events.n - e.dead }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Event may be cancelled.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At runs fn at instant t. Scheduling in the past panics: it always
// indicates a model bug, and silently clamping would mask it.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at, ev.seq, ev.fn, ev.cancelled = t, e.seq, fn, false
	e.seq++
	e.events.push(ev, e.now)
	return ev
}

// Cancel removes ev from the queue if it has not fired. Cancelling a nil,
// fired, or already-cancelled event is a no-op.
//
// Cancellation is lazy: the event is tombstoned in place (O(1)) and its
// callback reference dropped immediately, and the queue entry is reclaimed
// when it surfaces — or in bulk once tombstones outnumber live events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	// Drop the closure now so a tombstone never pins model objects
	// (e.g. a stopped Ticker's callback) while it waits in the queue.
	ev.fn = nil
	if !ev.queued {
		return // currently firing or already popped
	}
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

// release returns a popped or compacted-away event to the free pool.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// head skims tombstoned events off the front of the queue, without
// advancing the clock or firing anything, and returns the earliest live
// event, or nil when none is queued.
func (e *Engine) head() *Event {
	for e.events.n > 0 {
		ev := e.events.peek()
		if !ev.cancelled {
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
	if ev.cancelled {
		e.dead--
		e.release(ev)
		return
	}
	e.now = ev.at
	e.fired++
	ev.fn()
	e.release(ev)
}

// Ticker invokes fn every interval until cancelled. It is the building
// block for heartbeats and samplers.
type Ticker struct {
	eng      *Engine
	interval Duration
	fn       func()
	tick     func() // rearming wrapper, allocated once
	ev       *Event
	stopped  bool
}

// NewTicker starts a ticker whose first tick fires after one interval.
func NewTicker(eng *Engine, interval Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{eng: eng, interval: interval, fn: fn}
	t.tick = func() {
		t.ev = nil
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.ev = t.eng.Schedule(t.interval, t.tick)
		}
	}
	t.ev = eng.Schedule(interval, t.tick)
	return t
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
	t.ev = nil
	t.fn = nil
}
