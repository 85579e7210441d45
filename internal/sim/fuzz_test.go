package sim

import (
	"sort"
	"testing"
	"time"
)

// FuzzEventQueue drives the engine's lazy-cancel pooled event queue
// against a flat reference model. The byte stream is interpreted as a
// small op program: schedule, cancel, advance the clock, and schedule
// events whose callbacks themselves schedule or cancel (which is what
// exercises handle pooling — a fired event's struct is recycled, so the
// model must never cancel through a stale handle). Four ops aim at the
// radix queue's regimes: far-future schedules that reach its top
// buckets, a RunUntil that stops just short of the head followed by
// schedules below it (which rebases the queue onto the clock),
// same-instant bursts at a time already queued (the seq order of bucket
// 0, kept across refills and rebases), and same-instant bursts longer
// than a chunk at a far instant (a bucket chain of several chunks, read
// in order into bucket 0).
//
// Invariants checked:
//   - events fire exactly in (time, scheduling-order) order;
//   - cancelled events never fire, fired events are never re-fired;
//   - Pending() always equals the model's live count;
//   - the queue fully drains (compaction and tombstone skimming never
//     lose or duplicate a live event).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 5, 8, 3, 0, 6, 31})
	// Mass-schedule then mass-cancel: crosses the compactMin threshold.
	bulk := make([]byte, 0, 4*compactMin)
	for i := 0; i < compactMin; i++ {
		bulk = append(bulk, 0, byte(i))
	}
	for i := 0; i < compactMin; i++ {
		bulk = append(bulk, 3, byte(i))
	}
	f.Add(bulk)
	f.Add([]byte{7, 3, 7, 0, 5, 40, 7, 9, 5, 63, 3, 1, 5, 63})
	// Far-future schedules interleaved with near ones, then a drain.
	f.Add([]byte{8, 200, 0, 5, 8, 1, 8, 255, 0, 63, 5, 31, 8, 3, 3, 2})
	// Stop one tick short of the head, then schedule beneath it.
	f.Add([]byte{0, 20, 0, 40, 9, 3, 9, 7, 0, 1, 9, 0, 5, 10, 9, 5})
	// Bursts at queued instants, some queued long before the burst.
	f.Add([]byte{0, 30, 8, 1, 0, 40, 5, 20, 10, 0, 10, 1, 10, 2, 3, 5, 10, 9})
	// A burst at a queued instant, then a push below base: the rebase
	// must keep the burst in scheduling order.
	f.Add([]byte{0, 20, 10, 0, 0, 40, 8, 2, 10, 1, 9, 3, 9, 5, 5, 63})
	// A 189-event burst fills three chunks of one bucket; cancelling the
	// middle chunk's 63 events and 32 of the last's compacts the queue,
	// which moves the last chunk's survivors into the middle one.
	middle := []byte{11, 125}
	for id := 63; id < 158; id++ {
		middle = append(middle, 3, byte(id))
	}
	f.Add(middle)
	// A head at 20 ms is peeked into bucket 0, a 194-event burst spans
	// four chunks of a higher bucket, then a push below the head
	// rebases the queue with both in place.
	f.Add([]byte{0, 20, 11, 130, 9, 3, 5, 31})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine(1)
		const unit = Duration(time.Millisecond)

		type modelEvent struct {
			at        Time
			cancelled bool
			fired     bool
		}
		var (
			model   []*modelEvent
			handles []*Event // index-aligned with model; nil once fired
			gotIDs  []int
		)
		live := func() int {
			n := 0
			for _, m := range model {
				if !m.fired && !m.cancelled {
					n++
				}
			}
			return n
		}
		var schedule func(at Time, nestDelta Duration)
		schedule = func(at Time, nestDelta Duration) {
			id := len(model)
			m := &modelEvent{at: at}
			model = append(model, m)
			handles = append(handles, nil)
			ev := eng.At(at, func() {
				// The handle dies the moment the event fires: the engine
				// recycles the struct for a later schedule.
				handles[id] = nil
				m.fired = true
				gotIDs = append(gotIDs, id)
				if nestDelta >= 0 {
					// Nested schedule from inside a callback — lands on a
					// pooled (recycled) Event struct once the free list is
					// warm.
					schedule(eng.Now().Add(nestDelta), -1)
				}
			})
			handles[id] = ev
		}
		cancel := func(idx int) {
			if len(model) == 0 {
				return
			}
			idx %= len(model)
			m := model[idx]
			if m.fired || m.cancelled {
				// A stale handle must not be passed to Cancel: the struct
				// may already belong to a different scheduled event.
				return
			}
			eng.Cancel(handles[idx])
			m.cancelled = true
			handles[idx] = nil
		}

		// earliestLive reports the model's earliest live event time.
		earliestLive := func() (Time, bool) {
			var at Time
			ok := false
			for _, m := range model {
				if !m.fired && !m.cancelled && (!ok || m.at < at) {
					at, ok = m.at, true
				}
			}
			return at, ok
		}

		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 12 {
			case 0, 1, 2: // schedule at now+delta
				schedule(eng.Now().Add(Duration(arg%64)*unit), -1)
			case 3, 4: // cancel by index
				cancel(arg)
			case 5, 6: // advance the clock
				eng.RunFor(Duration(arg%32) * unit)
			case 7: // schedule an event that schedules another on fire
				schedule(eng.Now().Add(Duration(arg%64)*unit), Duration(arg%16)*unit)
			case 8: // far future: up to ~4.9 h, into the top buckets
				schedule(eng.Now().Add(Duration(arg)<<36), -1)
			case 9: // stop 1-8 ns short of the head, then schedule below it
				head, ok := earliestLive()
				gap := Time(1 + arg%8)
				if !ok || head-gap < eng.Now() {
					break
				}
				eng.RunUntil(head - gap)
				schedule(eng.Now().Add(Duration(arg)%Duration(gap)), -1)
				schedule(eng.Now(), -1)
			case 10: // burst of 8-15 events at an instant already queued
				if len(model) == 0 {
					break
				}
				m := model[arg%len(model)]
				if m.fired || m.cancelled {
					break
				}
				for k := 0; k < 8+arg%8; k++ {
					schedule(m.at, -1)
				}
			case 11: // burst of 64-200 events 1-275 s on: more than one chunk
				at := eng.Now().Add(Duration(1+arg) << 30)
				for k := 0; k < 64+arg%137; k++ {
					schedule(at, -1)
				}
			}
			if got, want := eng.Pending(), live(); got != want {
				t.Fatalf("op %d: Pending() = %d, model live = %d", i/2, got, want)
			}
		}

		// Drain everything (nested schedules keep extending the queue, but
		// each nesting is one level deep so the horizon is finite).
		eng.RunUntil(Time(1 << 50))
		if eng.Pending() != 0 {
			t.Fatalf("queue not drained: %d pending", eng.Pending())
		}

		// Expected firing order: live events by (time, scheduling order).
		var wantIDs []int
		for id, m := range model {
			if !m.cancelled {
				wantIDs = append(wantIDs, id)
			}
		}
		sort.SliceStable(wantIDs, func(a, b int) bool {
			return model[wantIDs[a]].at < model[wantIDs[b]].at
		})
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("fired %d events, want %d", len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("firing order diverges at %d: got %v, want %v", i, gotIDs, wantIDs)
			}
		}
		for id, m := range model {
			if m.cancelled && m.fired {
				t.Fatalf("event %d both cancelled and fired", id)
			}
		}
	})
}
