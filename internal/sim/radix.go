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
// Bucket 0 is one slice, reused and popped from the front. Buckets 1-63
// are only ever appended to and then read whole, so each is a FIFO
// chain of fixed-size chunks drawn from one queue-wide free list: a
// chunk goes back to the list as soon as a refill, compaction or rebase
// has read it, so no bucket array is regrown or copied and the queue
// holds memory for what is queued rather than for every bucket's peak.
//
// Events at one instant also stay in seq order within their bucket, so
// bucket 0 pops them in scheduling order without sorting: a push
// appends the newest seq; a redistribution reads each chain first chunk
// to last and moves events in order; compact and rebase keep order.
//
// The one event that can arrive below base is one scheduled after
// RunUntil or a shard window stopped short of a head it had already
// peeked (peeking advances base to that head). Such a push first
// rebases the queue onto the clock, which is never later than any
// queued entry, so every entry again has at >= base.
type radixQueue struct {
	base     Time
	n        int    // queued entries, tombstones included
	nonempty uint64 // bit i set iff bucket i holds an entry
	head     int    // next entry of b0 to pop
	b0       []*Event
	chains   [64]chain // buckets 1-63; chains[0] is unused
	free     *chunk    // read chunks, cleared, linked by next
}

// chunkLen fills a chunk to 512 bytes, one Go size class, with its link.
const chunkLen = 63

// chunk is one link of a bucket's chain.
type chunk struct {
	evs  [chunkLen]*Event
	next *chunk
}

// chain is a FIFO of chunks. Every chunk but the last is full; the last
// holds n entries. An empty chain has no chunks.
type chain struct {
	first, last *chunk
	n           int
}

// fill reports how many entries chunk k of c holds.
func (c *chain) fill(k *chunk) int {
	if k == c.last {
		return c.n
	}
	return chunkLen
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
	q.nonempty |= 1 << i
	if i == 0 {
		q.b0 = append(q.b0, ev)
		return
	}
	c := &q.chains[i]
	if c.last == nil || c.n == chunkLen {
		k := q.free
		if k != nil {
			q.free, k.next = k.next, nil
		} else {
			k = new(chunk)
		}
		if c.last == nil {
			c.first = k
		} else {
			c.last.next = k
		}
		c.last, c.n = k, 0
	}
	c.last.evs[c.n] = ev
	c.n++
}

// recycle clears the first n entries of read chunk k, all it was
// written, and puts it on the free list. It returns k's successor.
func (q *radixQueue) recycle(k *chunk, n int) *chunk {
	next := k.next
	clear(k.evs[:n])
	k.next, q.free = q.free, k
	return next
}

// rebase moves every queued entry onto base now, which must not be
// later than any of them. It reads the buckets lowest first, bucket 0
// from head, each front to back, and re-adds the entries in that order:
// events at one instant share a bucket, so they keep their seq order.
// No entry lands in the new bucket 0, since now is earlier than the old
// base.
func (q *radixQueue) rebase(now Time) {
	old, m := q.chains, q.nonempty
	q.chains, q.base, q.nonempty = [64]chain{}, now, 0
	if m&1 != 0 {
		for _, ev := range q.b0[q.head:] {
			q.add(bits.Len64(uint64(ev.at^now)), ev)
		}
		clear(q.b0)
		q.b0, q.head = q.b0[:0], 0
	}
	for m &^= 1; m != 0; m &= m - 1 {
		c := &old[bits.TrailingZeros64(m)]
		for k := c.first; k != nil; {
			n := c.fill(k)
			for _, ev := range k.evs[:n] {
				q.add(bits.Len64(uint64(ev.at^now)), ev)
			}
			k = q.recycle(k, n)
		}
	}
}

// peek returns the earliest entry without removing it. The queue must be
// non-empty.
func (q *radixQueue) peek() *Event {
	if len(q.b0) == 0 {
		q.refill()
	}
	return q.b0[q.head]
}

// popMin removes and returns the earliest entry. The queue must be
// non-empty.
func (q *radixQueue) popMin() *Event {
	ev := q.peek()
	q.n--
	q.b0[q.head] = nil
	if q.head++; q.head == len(q.b0) {
		q.b0, q.head = q.b0[:0], 0
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
	c := q.chains[i]
	q.chains[i] = chain{}
	q.nonempty &^= 1 << i
	m := c.first.evs[0].at
	for k := c.first; k != nil; k = k.next {
		for _, ev := range k.evs[:c.fill(k)] {
			m = min(m, ev.at)
		}
	}
	q.base = m
	for k := c.first; k != nil; {
		n := c.fill(k)
		for _, ev := range k.evs[:n] {
			q.add(bits.Len64(uint64(ev.at^m)), ev)
		}
		k = q.recycle(k, n)
	}
}

// compact removes every cancelled entry in place, handing each to
// release. Buckets keep their order.
func (q *radixQueue) compact(release func(*Event)) {
	q.n = 0
	if q.nonempty&1 != 0 {
		live := q.b0[:0]
		for _, ev := range q.b0[q.head:] {
			if !drop(ev, release) {
				live = append(live, ev)
			}
		}
		clear(q.b0[len(live):])
		q.b0, q.head = q.b0[:len(live)], 0
		if len(live) == 0 {
			q.nonempty &^= 1
		}
		q.n = len(live)
	}
	for m := q.nonempty &^ 1; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if n := q.sweep(&q.chains[i], release); n > 0 {
			q.n += n
		} else {
			q.nonempty &^= 1 << i
		}
	}
}

// sweep filters the cancelled events out of chain c in place, handing
// each to release, and returns how many survive. Survivors are written
// back from the front in their original order, and the chunks past the
// last one written go back to the free list.
func (q *radixQueue) sweep(c *chain, release func(*Event)) int {
	w, wn, live := c.first, 0, 0
	for k := c.first; k != nil; k = k.next {
		for _, ev := range k.evs[:c.fill(k)] {
			if drop(ev, release) {
				continue
			}
			if wn == chunkLen {
				w, wn = w.next, 0
			}
			w.evs[wn] = ev
			wn++
			live++
		}
	}
	if live == 0 {
		for k := c.first; k != nil; {
			k = q.recycle(k, c.fill(k))
		}
		*c = chain{}
		return 0
	}
	clear(w.evs[wn:c.fill(w)])
	for k := w.next; k != nil; {
		k = q.recycle(k, c.fill(k))
	}
	w.next, c.last, c.n = nil, w, wn
	return live
}

// drop reports whether ev is cancelled, handing it to release if so.
func drop(ev *Event, release func(*Event)) bool {
	if !ev.cancelled {
		return false
	}
	ev.queued = false
	release(ev)
	return true
}
