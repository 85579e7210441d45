package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// tickRec is one callback as a tickerWorld saw it: who ran, when, and
// the engine's EventsFired and Pending at that moment.
type tickRec struct {
	who     string
	at      Time
	fired   uint64
	pending int
}

// tickerWorld runs one seeded program of n same-phase heartbeat members
// plus foreign events, either on n Tickers (grouped false) or on one
// NewTickerN ticker whose round visits the members. Every random choice
// is drawn inside a callback, so two worlds that fire callbacks in the
// same order make the same choices.
//
// With sparse set, some members are idle in some rounds, as a sleeping
// slave is: under n tickers an idle member's callback returns at once,
// drawing and recording nothing; the grouped round does not visit it.
type tickerWorld struct {
	eng      *Engine
	rng      *rand.Rand
	interval Duration
	log      []tickRec
	nextID   int
	n        int
	sparse   bool
	stop     func()
	stopped  bool
	// Coverage counters: foreign callbacks at a round instant while the
	// heartbeat runs, stops from foreign events and mid-round, and idle
	// members.
	ties, foreignStops, midRoundStops, idles int
}

// idle reports whether member i sits out the round at the current
// instant. It depends on the clock and i alone, not on the world's
// random stream, so both worlds agree on it.
func (w *tickerWorld) idle(i int) bool {
	if !w.sparse {
		return false
	}
	h := uint64(w.eng.Now())/uint64(w.interval)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	return (h>>29)%3 == 0
}

// round is the grouped ticker's round: it visits the members that are
// not idle, in member order, and ends when the ticker stops.
func (w *tickerWorld) round(t *Ticker) {
	for i := 0; i < w.n; i++ {
		if w.idle(i) {
			continue
		}
		if !t.Visit(i) {
			return
		}
		w.member(i)
	}
}

func (w *tickerWorld) record(who string) {
	w.log = append(w.log, tickRec{who, w.eng.Now(), w.eng.EventsFired(), w.eng.Pending()})
}

// delay draws a foreign event's delay, landing on exact round instants
// and on the current instant often.
func (w *tickerWorld) delay() Duration {
	switch w.rng.Intn(5) {
	case 0:
		return 0
	case 1: // the next round instant or one after it: an exact tie
		now := Duration(w.eng.Now())
		return (now/w.interval+1+Duration(w.rng.Intn(2)))*w.interval - now
	case 2:
		return Duration(2+w.rng.Intn(3)) * w.interval
	default:
		return Duration(w.rng.Int63n(int64(3 * w.interval)))
	}
}

// foreign schedules a foreign event after d. When it fires it may
// schedule more foreign events and may stop the heartbeat.
func (w *tickerWorld) foreign(d Duration, depth int) {
	id := w.nextID
	w.nextID++
	w.eng.Schedule(d, func() {
		w.record(fmt.Sprintf("f%d", id))
		if !w.stopped && w.eng.Now()%Time(w.interval) == 0 {
			w.ties++
		}
		if depth < 4 {
			for k := w.rng.Intn(3); k > 0; k-- {
				w.foreign(w.delay(), depth+1)
			}
		}
		if !w.stopped && w.rng.Intn(60) == 0 {
			w.foreignStops++
			w.stopHeartbeat()
		}
	})
}

func (w *tickerWorld) stopHeartbeat() {
	w.stopped = true
	w.stop()
}

// member is heartbeat member i's callback.
func (w *tickerWorld) member(i int) {
	if w.idle(i) {
		w.idles++
		return
	}
	w.record(fmt.Sprintf("m%d", i))
	switch w.rng.Intn(6) {
	case 0: // a zero-delay event, as a slave's kick schedules
		w.foreign(0, 3)
	case 1:
		w.foreign(Duration(1+w.rng.Int63n(int64(w.interval-1))), 3)
	case 2:
		w.foreign(Duration(2+w.rng.Intn(2))*w.interval, 3)
	case 3:
		if i == 0 { // see TestTickerNPlusIntervalDivergence for i > 0
			w.foreign(w.interval, 3)
		}
	}
	if !w.stopped && w.rng.Intn(150) == 0 {
		if i < w.n-1 {
			w.midRoundStops++
		}
		w.stopHeartbeat()
	}
}

// newTickerWorld builds the program for seed on n members; odd seeds
// make some members idle in some rounds.
func newTickerWorld(seed int64, n int, grouped bool) *tickerWorld {
	w := &tickerWorld{
		eng:      NewEngine(seed),
		rng:      rand.New(rand.NewSource(seed)),
		interval: 10 * time.Second,
		n:        n,
		sparse:   seed%2 == 1,
	}
	for k := w.rng.Intn(4); k > 0; k-- {
		w.foreign(w.delay(), 0)
	}
	if grouped {
		t := NewTickerN(w.eng, w.interval, n, w.round)
		w.stop = t.Stop
	} else {
		ts := make([]*Ticker, n)
		for i := range ts {
			i := i
			ts[i] = NewTicker(w.eng, w.interval, func() { w.member(i) })
		}
		w.stop = func() {
			for _, t := range ts {
				t.Stop()
			}
		}
	}
	for k := w.rng.Intn(4); k > 0; k-- {
		w.foreign(w.delay(), 0)
	}
	return w
}

// TestTickerNMatchesTickers drives n Tickers and one NewTickerN ticker
// of n members through the same seeded programs: foreign events at
// exact round-instant ties, members that schedule zero-delay and later
// events (member 0 also exactly one interval ahead), heartbeat stops
// from foreign events and from inside a round, and, on odd seeds,
// members the round skips as idle. Every callback must run in the same
// order at the same instant and see the same EventsFired and Pending,
// and both engines must agree after every advance of the clock.
func TestTickerNMatchesTickers(t *testing.T) {
	t.Parallel()
	var ties, foreignStops, midRoundStops, idles int
	for seed := int64(1); seed <= 300; seed++ {
		n := 1 + int(seed%7)
		per := newTickerWorld(seed, n, false)
		one := newTickerWorld(seed, n, true)
		steps := rand.New(rand.NewSource(-seed))
		for now := Time(0); now < Time(40*per.interval); {
			if steps.Intn(2) == 0 {
				now += Time(per.interval) // land exactly on round instants
			} else {
				now += Time(steps.Int63n(int64(per.interval)))
			}
			per.eng.RunUntil(now)
			one.eng.RunUntil(now)
			if len(per.log) != len(one.log) || per.eng.EventsFired() != one.eng.EventsFired() ||
				per.eng.Pending() != one.eng.Pending() {
				t.Fatalf("seed %d, n=%d, at %v: %d tickers logged %d callbacks, fired %d, pending %d; "+
					"one ticker logged %d, fired %d, pending %d", seed, n, now,
					n, len(per.log), per.eng.EventsFired(), per.eng.Pending(),
					len(one.log), one.eng.EventsFired(), one.eng.Pending())
			}
		}
		for i := range per.log {
			if per.log[i] != one.log[i] {
				t.Fatalf("seed %d, n=%d, callback %d: %d tickers %+v, one ticker %+v",
					seed, n, i, n, per.log[i], one.log[i])
			}
		}
		if per.stopped != one.stopped {
			t.Fatalf("seed %d: stopped %v vs %v", seed, per.stopped, one.stopped)
		}
		ties += per.ties
		foreignStops += per.foreignStops
		midRoundStops += per.midRoundStops
		idles += per.idles
	}
	if ties < 100 || foreignStops < 10 || midRoundStops < 10 || idles < 100 {
		t.Errorf("programs too tame: %d round-instant ties, %d foreign stops, %d mid-round stops, %d idle members",
			ties, foreignStops, midRoundStops, idles)
	}
	t.Logf("%d round-instant ties, %d foreign stops, %d mid-round stops, %d idle members",
		ties, foreignStops, midRoundStops, idles)
}

// visitAll returns a round that visits all n members in order.
func visitAll(n int, member func(int)) func(*Ticker) {
	return func(t *Ticker) {
		for i := 0; i < n && t.Visit(i); i++ {
			member(i)
		}
	}
}

// TestTickerNStopMidRound stops the heartbeat from inside member 1 of 4:
// members 2 and 3 never run that round, the engine counts only the
// members that ran, and no heartbeat stays pending.
func TestTickerNStopMidRound(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		e := NewEngine(1)
		var ran []int
		var stop func()
		member := func(i int) {
			ran = append(ran, i)
			if i == 1 && e.Now() == Time(2*time.Second) {
				stop()
			}
		}
		if grouped {
			stop = NewTickerN(e, time.Second, 4, visitAll(4, member)).Stop
		} else {
			var ts []*Ticker
			for i := 0; i < 4; i++ {
				i := i
				ts = append(ts, NewTicker(e, time.Second, func() { member(i) }))
			}
			stop = func() {
				for _, t := range ts {
					t.Stop()
				}
			}
		}
		if got := e.Pending(); got != 4 {
			t.Errorf("grouped=%v: pending %d after start, want 4", grouped, got)
		}
		e.RunUntil(Time(5 * time.Second))
		if want := []int{0, 1, 2, 3, 0, 1}; !reflect.DeepEqual(ran, want) {
			t.Errorf("grouped=%v: ran %v, want %v", grouped, ran, want)
		}
		if got := e.EventsFired(); got != 6 {
			t.Errorf("grouped=%v: fired %d, want 6", grouped, got)
		}
		if got := e.Pending(); got != 0 {
			t.Errorf("grouped=%v: pending %d after stop, want 0", grouped, got)
		}
	}
}

// TestTickerNPlusIntervalDivergence pins the one tie the grouped ticker
// does not reproduce: member j>0 schedules an event exactly one interval
// ahead. Under n tickers it fires after members 0..j-1 of the next
// round, because their rearm events were scheduled before it; under one
// ticker it fires before the whole round, because the shared rearm is
// scheduled after every member has run.
func TestTickerNPlusIntervalDivergence(t *testing.T) {
	run := func(grouped bool) []string {
		e := NewEngine(1)
		var log []string
		member := func(i int) {
			log = append(log, fmt.Sprintf("m%d@%v", i, e.Now()))
			if i == 2 && e.Now() == Time(time.Second) {
				e.Schedule(time.Second, func() { log = append(log, fmt.Sprintf("E@%v", e.Now())) })
			}
		}
		if grouped {
			NewTickerN(e, time.Second, 3, visitAll(3, member))
		} else {
			for i := 0; i < 3; i++ {
				i := i
				NewTicker(e, time.Second, func() { member(i) })
			}
		}
		e.RunUntil(Time(2 * time.Second))
		return log
	}
	round1 := []string{"m0@1s", "m1@1s", "m2@1s"}
	if got, want := run(false), append(round1, "m0@2s", "m1@2s", "E@2s", "m2@2s"); !reflect.DeepEqual(got, want) {
		t.Errorf("tickers: %v, want %v", got, want)
	}
	if got, want := run(true), append(round1, "E@2s", "m0@2s", "m1@2s", "m2@2s"); !reflect.DeepEqual(got, want) {
		t.Errorf("one ticker: %v, want %v", got, want)
	}
}
