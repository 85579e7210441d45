package sim

import "math/bits"

// radixQueue is the engine's event queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) over *Event that pops in
// strict (at, seq) order.
//
// It relies on the clock never running backwards. Every queued event
// has at >= base and lives in bucket bits.Len64(at^base), the position
// of the highest bit where its time differs from base, so every event in
// bucket i is earlier than every event in any bucket above i, bucket 0
// holds exactly the events at base, and events at one instant always
// share a bucket. Popping takes bucket 0 from the front. When bucket 0
// is empty, the lowest nonempty bucket is redistributed around its
// minimum, which becomes the new base: each of its events lands in a
// strictly lower bucket, so an event moves at most 63 times in its life
// and a pop costs amortized O(1) bucket moves instead of a heap's
// O(log n) sift through the whole queue.
//
// Events at one instant also stay in seq order within their bucket, so
// bucket 0 pops them in scheduling order without sorting: a push
// appends the newest seq; a redistribution moves events in order; regrow,
// compact and rebase keep order.
//
// The one event that can arrive below base is one scheduled after
// RunUntil or a shard window stopped short of a head it had already
// peeked (peeking advances base to that head). Such a push first
// rebases the queue onto the clock, which is never later than any
// queued entry, so every entry again has at >= base.
type radixQueue struct {
	base     Time
	n        int    // queued entries, tombstones included
	nonempty uint64 // bit i set iff buckets[i] holds an entry
	head     int    // next entry of buckets[0] to pop
	buckets  [64][]*Event
	spare    []*Event // rebase's scratch, kept between calls
}

// push queues ev; now is the engine clock, never later than ev.at.
func (q *radixQueue) push(ev *Event, now Time) {
	ev.queued = true
	if q.n == 0 {
		q.base = now // an empty queue has no order to keep
	} else if ev.at < q.base {
		q.rebase(now)
	}
	q.n++
	q.add(bits.Len64(uint64(ev.at^q.base)), ev)
}

// add appends ev to bucket i.
func (q *radixQueue) add(i int, ev *Event) {
	b := q.buckets[i]
	if len(b) == cap(b) && len(b) >= stealMin {
		b = q.regrow(i)
	}
	q.buckets[i] = append(b, ev)
	q.nonempty |= 1 << i
}

// rebase moves every queued entry onto base now, which must not be
// later than any of them. It gathers the buckets lowest first, each
// front to back, and re-adds the entries in that order: events at one
// instant share a bucket, so they keep their seq order.
func (q *radixQueue) rebase(now Time) {
	s := q.spare
	for m := q.nonempty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		b := q.buckets[i]
		if i == 0 {
			s = append(s, b[q.head:]...)
		} else {
			s = append(s, b...)
		}
		clear(b)
		q.buckets[i] = b[:0]
	}
	q.base, q.head, q.nonempty = now, 0, 0
	for _, ev := range s {
		q.add(bits.Len64(uint64(ev.at^now)), ev)
	}
	clear(s)
	q.spare = s[:0]
}

// Bounds on the arrays regrow moves between buckets. Below stealMin
// entries a bucket grows by append: small arrays are cheap to keep at
// every level, and trading them would reshuffle arrays on every pass,
// since how a queue's events spread over the buckets shifts with base.
// Above stealCap times the full array's size, a large array stays for
// the level that grew it instead of being pinned by a small bucket.
const (
	stealMin = 16
	stealCap = 4
)

// regrow moves full bucket i into the smallest larger array an empty
// bucket holds, at least twice and at most stealCap times the size,
// handing bucket i's array to that bucket; with none, it returns bucket
// i as is and append grows it. Buckets fill in turn — as the clock nears
// a multiple of 2^k, every event past it collects in bucket k+1 — so one
// drained array serves level after level, and a queue holds arrays for
// its peak rather than for every level's.
func (q *radixQueue) regrow(i int) []*Event {
	b := q.buckets[i]
	best := -1
	for j := range q.buckets {
		c := cap(q.buckets[j])
		if q.nonempty&(1<<j) != 0 || c < 2*cap(b) || c > stealCap*cap(b) {
			continue
		}
		if best < 0 || c < cap(q.buckets[best]) {
			best = j
		}
	}
	if best < 0 {
		return b
	}
	nb := append(q.buckets[best], b...)
	clear(b)
	q.buckets[best] = b[:0]
	return nb
}

// peek returns the earliest entry without removing it. The queue must be
// non-empty.
func (q *radixQueue) peek() *Event {
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	return q.buckets[0][q.head]
}

// popMin removes and returns the earliest entry. The queue must be
// non-empty.
func (q *radixQueue) popMin() *Event {
	ev := q.peek()
	q.n--
	b0 := q.buckets[0]
	b0[q.head] = nil
	if q.head++; q.head == len(b0) {
		q.buckets[0], q.head = b0[:0], 0
		q.nonempty &^= 1
	}
	ev.queued = false
	return ev
}

// refill empties the lowest nonempty bucket into the buckets below it,
// rebasing the queue on that bucket's earliest time. Bucket 0 must be
// empty.
func (q *radixQueue) refill() {
	i := bits.TrailingZeros64(q.nonempty)
	src, cur := q.buckets[i], q.buckets[0]
	// Detach both arrays while src is read and cur written, so regrow
	// cannot hand either to another bucket.
	q.buckets[i], q.buckets[0] = nil, nil
	q.nonempty &^= 1 << i
	m := src[0].at
	for _, ev := range src[1:] {
		m = min(m, ev.at)
	}
	q.base = m
	for _, ev := range src {
		j := bits.Len64(uint64(ev.at ^ m))
		if j == 0 {
			cur = append(cur, ev)
			continue
		}
		q.add(j, ev)
	}
	clear(src)
	q.buckets[i], q.buckets[0], q.head = src[:0], cur, 0
	q.nonempty |= 1
}

// compact removes every cancelled entry in place, handing each to
// release. Buckets keep their order.
func (q *radixQueue) compact(release func(*Event)) {
	if q.head > 0 {
		b0 := q.buckets[0]
		k := copy(b0, b0[q.head:])
		clear(b0[k:])
		q.buckets[0], q.head = b0[:k], 0
	}
	q.n = 0
	for m := q.nonempty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q.buckets[i] = sweep(q.buckets[i], release)
		if len(q.buckets[i]) == 0 {
			q.nonempty &^= 1 << i
		}
		q.n += len(q.buckets[i])
	}
}

// sweep filters the cancelled events out of s in place, handing each to
// release, and returns the survivors in their original order.
func sweep(s []*Event, release func(*Event)) []*Event {
	live := s[:0]
	for _, ev := range s {
		if ev.cancelled {
			ev.queued = false
			release(ev)
			continue
		}
		live = append(live, ev)
	}
	clear(s[len(live):])
	return live
}
