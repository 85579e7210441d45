package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// refEngine is the engine loop with an independent queue: every event
// in one container/heap binary heap ordered by (at, seq), lazy-cancel
// tombstones skimmed at the head, and no pooling or compaction.
// TestRadixQueueLockstep runs it beside Engine. Its state lives in its
// own refEvent records; the *Event it returns is only a handle, so the
// reference shares none of the struct it checks.
type refEngine struct {
	now   Time
	seq   uint64
	q     refHeap
	recs  map[*Event]*refEvent // by handle, until popped
	live  int
	fired uint64
}

// refEvent is refEngine's record of one scheduled event.
type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	handle    *Event
	cancelled bool
}

// refHeap is a heap.Interface over *refEvent in (at, seq) order.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func newRefEngine() *refEngine { return &refEngine{recs: map[*Event]*refEvent{}} }

func (r *refEngine) Now() Time           { return r.now }
func (r *refEngine) Pending() int        { return r.live }
func (r *refEngine) EventsFired() uint64 { return r.fired }

func (r *refEngine) At(t Time, fn func()) *Event {
	ev := &refEvent{at: t, seq: r.seq, fn: fn, handle: new(Event)}
	r.seq++
	heap.Push(&r.q, ev)
	r.recs[ev.handle] = ev
	r.live++
	return ev.handle
}

// Cancel tombstones a queued event; a popped one has no record left.
func (r *refEngine) Cancel(h *Event) {
	ev, queued := r.recs[h]
	if !queued || ev.cancelled {
		return
	}
	ev.cancelled = true
	r.live--
}

// pop removes the head event and its handle's record.
func (r *refEngine) pop() *refEvent {
	ev := heap.Pop(&r.q).(*refEvent)
	delete(r.recs, ev.handle)
	return ev
}

// next reports the earliest live event's time, skimming tombstones.
func (r *refEngine) next() (Time, bool) {
	for len(r.q) > 0 && r.q[0].cancelled {
		r.pop()
	}
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refEngine) RunUntil(t Time) {
	for len(r.q) > 0 && r.q[0].at <= t {
		ev := r.pop()
		if ev.cancelled {
			continue
		}
		r.live--
		r.now = ev.at
		r.fired++
		ev.fn()
	}
	if r.now < t {
		r.now = t
	}
}

// lockstepEngine is what the lockstep program drives on either side.
type lockstepEngine interface {
	Now() Time
	At(Time, func()) *Event
	Cancel(*Event)
	RunUntil(Time)
	Pending() int
	EventsFired() uint64
}

// lockstepSide is one engine plus the program's view of it. Event ids are
// assigned in scheduling order, so two sides that fire the same events
// in the same order assign the same ids to nested schedules too.
type lockstepSide struct {
	eng     lockstepEngine
	handles []*Event // by id; nil once fired or cancelled
	ats     []Time   // by id
	fired   []int
	checked int // fired entries already compared with the other side
}

// schedule queues a new event at at. With nest >= 0, the event's callback
// cancels victim (if still queued; with victim < 0, cancels most of the
// queue) and schedules a child nest later.
func (s *lockstepSide) schedule(at Time, nest Duration, victim int) {
	id := len(s.handles)
	s.ats = append(s.ats, at)
	s.handles = append(s.handles, nil)
	s.handles[id] = s.eng.At(at, func() {
		s.handles[id] = nil
		s.fired = append(s.fired, id)
		if nest < 0 {
			return
		}
		if victim < 0 {
			s.cancelMost(int64(-victim))
		} else {
			s.cancel(victim)
		}
		s.schedule(s.eng.Now().Add(nest), -1, 0)
	})
}

// cancelMost cancels every queued event whose id is not a multiple of
// mod, which is enough to make the engine compact.
func (s *lockstepSide) cancelMost(mod int64) {
	for id := range s.handles {
		if int64(id)%mod != 0 {
			s.cancel(id)
		}
	}
}

func (s *lockstepSide) cancel(id int) {
	if id < len(s.handles) && s.handles[id] != nil {
		s.eng.Cancel(s.handles[id])
		s.handles[id] = nil
	}
}

// TestRadixQueueLockstep runs random programs of 10^5 operations on the
// engine and on refEngine side by side — schedules near, far, below a
// peeked head and at instants already queued, single and bulk cancels
// (which trigger compaction), RunUntil, and callbacks that cancel and
// schedule — and requires the same firing sequence, clock, Pending and
// EventsFired after every operation.
func TestRadixQueueLockstep(t *testing.T) {
	const ops = 100_000
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(seed)
		ref := newRefEngine()
		sides := [2]*lockstepSide{{eng: eng}, {eng: ref}}
		for op := 0; op < ops; op++ {
			a := sides[0]
			now := a.eng.Now()
			k := rng.Intn(100)
			arg := rng.Int63()
			apply := func(f func(s *lockstepSide)) {
				for _, s := range sides {
					f(s)
				}
			}
			switch {
			case k < 30: // near, including the current instant
				at := now.Add(Duration(arg%64) * time.Millisecond)
				apply(func(s *lockstepSide) { s.schedule(at, -1, 0) })
			case k < 38: // far: up to ~4.9 h
				at := now.Add(Duration(arg % (1 << 44)))
				apply(func(s *lockstepSide) { s.schedule(at, -1, 0) })
			case k < 46: // ties with an instant already queued
				id := int(arg % int64(len(a.ats)+1))
				if id < len(a.ats) && a.handles[id] != nil {
					at := a.ats[id]
					n := 1 + rng.Intn(12)
					apply(func(s *lockstepSide) {
						for i := 0; i < n; i++ {
							s.schedule(at, -1, 0)
						}
					})
				}
			case k < 56: // callback cancels one event and schedules another
				at := now.Add(Duration(arg%64) * time.Millisecond)
				nest := Duration(rng.Intn(32)) * time.Millisecond
				victim := rng.Intn(len(a.ats) + 1)
				apply(func(s *lockstepSide) { s.schedule(at, nest, victim) })
			case k < 74: // cancel one
				id := int(arg % int64(len(a.ats)+1))
				apply(func(s *lockstepSide) { s.cancel(id) })
			case k < 75: // cancel most of the queue: compaction
				mod := 2 + arg%3
				apply(func(s *lockstepSide) { s.cancelMost(mod) })
			case k < 76: // same, from a callback amid a same-instant burst
				at := now.Add(Duration(arg%64) * time.Millisecond)
				n := 2 + rng.Intn(16)
				apply(func(s *lockstepSide) {
					for i := 0; i < n; i++ {
						s.schedule(at, -1, 0)
					}
					s.schedule(at, 0, -3)
					for i := 0; i < n; i++ {
						s.schedule(at, -1, 0)
					}
				})
			case k < 97: // run forward
				until := now.Add(Duration(arg%50) * time.Millisecond)
				apply(func(s *lockstepSide) { s.eng.RunUntil(until) })
			default: // stop just short of the head, then schedule below it
				head, ok := ref.next()
				gap := Time(1 + arg%1000)
				if !ok || head-gap < now {
					break
				}
				apply(func(s *lockstepSide) {
					s.eng.RunUntil(head - gap)
					s.schedule(head-gap, -1, 0)
					s.schedule(head-gap+Time(arg)%gap, -1, 0)
				})
			}
			checkLockstep(t, seed, op, sides)
		}
		for _, s := range sides {
			s.eng.RunUntil(Time(1 << 62))
		}
		checkLockstep(t, seed, ops, sides)
		if eng.EventsFired() < ops/4 {
			t.Fatalf("seed %d: only %d events fired", seed, eng.EventsFired())
		}
	}
}

func checkLockstep(t *testing.T, seed int64, op int, sides [2]*lockstepSide) {
	t.Helper()
	a, b := sides[0], sides[1]
	if a.eng.Now() != b.eng.Now() || a.eng.Pending() != b.eng.Pending() || a.eng.EventsFired() != b.eng.EventsFired() {
		t.Fatalf("seed %d op %d: now %v/%v pending %d/%d fired %d/%d (engine/reference)", seed, op,
			a.eng.Now(), b.eng.Now(), a.eng.Pending(), b.eng.Pending(), a.eng.EventsFired(), b.eng.EventsFired())
	}
	if len(a.fired) != len(b.fired) {
		t.Fatalf("seed %d op %d: %d events fired, reference %d", seed, op, len(a.fired), len(b.fired))
	}
	for i := a.checked; i < len(a.fired); i++ {
		if a.fired[i] != b.fired[i] {
			t.Fatalf("seed %d op %d: firing %d was event %d, reference %d", seed, op, i, a.fired[i], b.fired[i])
		}
	}
	a.checked = len(a.fired)
}

// A push below base rebases the queue onto the clock. On a warm engine
// the rebase re-adds every entry into chunks from the queue's free
// list, which the chunks it has read refill, so the cycle — RunUntil
// stops one nanosecond short of the head, a burst is scheduled there,
// below base, and fires, then the head fires and reschedules itself an
// hour on — allocates nothing.
func TestRebaseSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	nop := func() {}
	var far func()
	far = func() { e.Schedule(time.Hour, far) }
	for i := 0; i < 256; i++ {
		e.At(Time(time.Hour)+Time(i)*Time(14*time.Second+7), far)
	}
	cycle := func() {
		h := e.head().at
		e.RunUntil(h - 1)
		for i := 0; i < 16; i++ {
			e.At(h-1, nop)
		}
		if e.events.base != h-1 {
			t.Fatalf("burst at %v did not rebase the queue (base %v)", h-1, e.events.base)
		}
		e.RunUntil(h)
	}
	for i := 0; i < 1024; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("steady-state rebase cycle allocates %.2f objects/op, want 0", avg)
	}
	if e.Pending() != 256 {
		t.Fatalf("Pending = %d after the cycles, want 256", e.Pending())
	}
}

// TestQueueGrowthAllocBytes bounds what filling an engine with 2^18
// events allocates per event beyond the Event itself, once at random
// instants within an hour and once evenly spaced over 90 minutes.
// Chunks never move, so the queue allocates what it holds, 512 B per 63
// entries (8.1 B each), plus at most one partly filled chunk a bucket;
// bucket arrays grown by append allocated about 42 B per event.
func TestQueueGrowthAllocBytes(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	random, even := make([]Time, n), make([]Time, n)
	for i := range random {
		random[i] = Time(rng.Int63n(int64(time.Hour)))
		even[i] = Time(i) * Time(90*time.Minute/n)
	}
	nop := func() {}
	for _, tc := range []struct {
		name string
		ats  []Time
	}{{"random", random}, {"even", even}} {
		e := NewEngine(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, at := range tc.ats {
			e.At(at, nop)
		}
		runtime.ReadMemStats(&after)
		perEvent := float64(after.TotalAlloc-before.TotalAlloc)/n - float64(unsafe.Sizeof(Event{}))
		if perEvent > 9 {
			t.Errorf("%s: queue allocates %.2f B per queued event, want at most 9", tc.name, perEvent)
		}
		if e.Pending() != n {
			t.Fatalf("%s: Pending = %d, want %d", tc.name, e.Pending(), n)
		}
	}
}

// TestEventSize pins the event record at 24 bytes: a time, a sequence
// number and a callback, with liveness encoded as fn != nil.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("Event is %d bytes, want 24", got)
	}
}

// TestEngineFillAllocBytes bounds what 2^18 pre-scheduled At calls at
// random instants within an hour allocate, Events included: 24 B per
// Event plus about 8.1 B of queue chunk, at most 33 B per event (32-byte
// Events made it 40 B). Draining the engine then fills the event
// pool to its cap from chunks the queue has read, so the drain allocates
// under 1 B per event (a pool slice doubling to its cap took about 4 B).
func TestEngineFillAllocBytes(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	ats := make([]Time, n)
	for i := range ats {
		ats[i] = Time(rng.Int63n(int64(time.Hour)))
	}
	nop := func() {}
	e := NewEngine(1)
	var before, filled, drained runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, at := range ats {
		e.At(at, nop)
	}
	runtime.ReadMemStats(&filled)
	e.Run()
	runtime.ReadMemStats(&drained)
	if perEvent := float64(filled.TotalAlloc-before.TotalAlloc) / n; perEvent > 33 {
		t.Errorf("filling allocates %.2f B per event, want at most 33", perEvent)
	}
	if perEvent := float64(drained.TotalAlloc-filled.TotalAlloc) / n; perEvent > 1 {
		t.Errorf("draining allocates %.2f B per event, want at most 1", perEvent)
	}
	if e.EventsFired() != n || e.free.size != maxFreeEvents {
		t.Fatalf("fired %d events and pooled %d, want %d and %d", e.EventsFired(), e.free.size, n, maxFreeEvents)
	}
}
