package migration

import (
	"fmt"
	"math/bits"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// Work-driven heartbeats. A slave with nothing to do changes no state
// when it ticks or pulls: its estimate is unchanged, its report repeats
// the stored one, its queue is empty and its memory below the scavenge
// threshold. The coordinator keeps one awake bit per slave and the
// heartbeat round visits only the slaves whose bit is set, in node
// order. A slave's bit is cleared at the end of its own tick when it is
// idle, and set again by whatever can give it work: an enqueue, a binder
// target, a slave restart, buffered memory crossing the scavenge
// threshold, and a change of cluster membership (which makes one round
// visit every slave). The engine still counts every slave's tick as an
// event, so event counts and digests do not move.
//
// Migrate's RPC only pulls and kicks, so it visits a narrower set: the
// ready slaves, those on which a pull could bind a block or a kick
// could start (or retry) a transfer. Most awake slaves are not ready:
// their queue is full, their transfer slots are busy and the binder has
// targeted nothing more at them.
//
// The estimate series (Fig 9) takes one sample from every slave every
// round. While the series is kept, the round walks every slave, and a
// sleeping one records its unchanged estimate without ticking.

// bitAt reports whether bit i of set is set.
func bitAt(set []uint64, i int) bool {
	return set[i>>6]&(1<<(uint(i)&63)) != 0
}

// setBit sets bit i of set; clearBit clears it.
func setBit(set []uint64, i int)   { set[i>>6] |= 1 << (uint(i) & 63) }
func clearBit(set []uint64, i int) { set[i>>6] &^= 1 << (uint(i) & 63) }

// setBits sets bits 0 to n-1 of set.
func setBits(set []uint64, n int) {
	for i := 0; i < n; i++ {
		setBit(set, i)
	}
}

// awakeAt reports whether slave i's awake bit is set.
func (c *Coordinator) awakeAt(i int) bool { return bitAt(c.awake, i) }

// next returns the first slave at or after i to visit: i itself when
// all are visited, else the first one whose bit is set in set. It
// returns len(c.slaves) when none is left.
func (c *Coordinator) next(set []uint64, i int, all bool) int {
	if all || i >= len(c.slaves) {
		return i
	}
	w := i >> 6
	word := set[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(set) {
			return len(c.slaves)
		}
		word = set[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// wake sets slave n's bit.
func (c *Coordinator) wake(n cluster.NodeID) { setBit(c.awake, int(n)) }

// sleep clears slave n's bit; only its own idle tick calls it.
func (c *Coordinator) sleep(n cluster.NodeID) { clearBit(c.awake, int(n)) }

// markReady puts slave n in the ready set: an enqueue gave it a queued
// block, or the binder targeted a block at it and it has queue space.
func (c *Coordinator) markReady(n cluster.NodeID) { setBit(c.ready, int(n)) }

// onTargeted records that the binder put a block in slave n's pull
// bucket: it wakes the slave, and makes it ready if it has queue space.
func (c *Coordinator) onTargeted(n cluster.NodeID) {
	c.wake(n)
	if s := c.slaves[int(n)]; s.occupancy() < s.depth {
		c.markReady(n)
	}
}

// settle recomputes slave s's ready bit after something that can take
// it out of the set: a kick, a dequeue, a restart. The slave stays
// ready while a kick has a queued block and a free transfer slot to try
// (a slave blocked on memory is retried by every kick, so it stays, and
// BlockedOnMemory counts the same), or while a pull has queue space and
// a block the binder targeted at it. Every change that can make either
// hold again is followed by a settle or a markReady.
func (c *Coordinator) settle(s *Slave) {
	startable := len(s.queue) > 0 && s.nActive < len(s.active)
	if startable || s.occupancy() < s.depth && c.binder.pullable(s.node.ID) {
		setBit(c.ready, int(s.node.ID))
	} else {
		clearBit(c.ready, int(s.node.ID))
	}
}

// onMemRegistered wakes the slave whose buffered memory a registration
// (a migration, the cache, a pinned input) took past the scavenge
// threshold, since its next tick would scavenge.
func (c *Coordinator) onMemRegistered(n cluster.NodeID) {
	if c.slaves[int(n)].overThreshold() {
		c.wake(n)
	}
}

// heartbeatRound is one heartbeat: it ticks the awake slaves, or every
// slave when the binder's pulls may bind anywhere or membership
// changed, in node order. While the estimate series is kept it walks
// every slave, and a sleeping one only records its estimate.
func (c *Coordinator) heartbeatRound(t *sim.Ticker) {
	all := c.binder.pullsAny()
	if e := c.cl.MembershipEpoch(); e != c.members {
		c.members, all = e, true
	}
	// The skip oracle also walks every slave, and checks the ones the
	// awake set skips.
	walk := all || wakeCheck || !c.cfg.DisableEstimateSeries
	n := len(c.slaves)
	for i := c.next(c.awake, 0, walk); i < n; i = c.next(c.awake, i+1, walk) {
		if !t.Visit(i) {
			break
		}
		switch {
		case all || c.awakeAt(i):
			c.slaves[i].tick()
		case wakeCheck:
			c.checkedTick(i)
		default:
			c.slaves[i].recordEstimate()
		}
	}
}

// rpcPull is the RPC Migrate sends: the ready slaves pull and start
// work, so migration can begin within a round-trip instead of a
// heartbeat.
func (c *Coordinator) rpcPull() {
	all := c.binder.pullsAny()
	// The skip oracle visits every slave and checks the ones the ready
	// set skips.
	check, walk := wakeCheck && !all, all || wakeCheck
	n := len(c.slaves)
	for i := c.next(c.ready, 0, walk); i < n; i = c.next(c.ready, i+1, walk) {
		if check && !bitAt(c.ready, i) {
			c.checkedPull(i)
			continue
		}
		s := c.slaves[i]
		s.pull()
		s.kick()
	}
}

// overThreshold reports whether the slave's buffered memory is past the
// scavenge threshold, so its tick scavenges.
func (s *Slave) overThreshold() bool {
	used := s.c.fs.DataNode(s.node.ID).MemUsed()
	return float64(used) > scavengeThreshold*float64(s.node.Cfg.MemCapacity)
}

// idle reports whether the slave can sleep after a tick in which its
// pull bound nothing: no queued or active migration, memory at or below
// the scavenge threshold, and a stored report equal to the one its next
// tick would send.
func (s *Slave) idle() bool {
	return s.occupancy() == 0 && !s.overThreshold() &&
		s.c.estimates[int(s.node.ID)] == nodeEstimate{perByte: s.estimator.perByte(), seen: true}
}

// wakeSnap is what a visit to a slave can change, on the slave and
// around it. The skip oracle compares it across visits the awake set
// would have skipped.
type wakeSnap struct {
	est            nodeEstimate
	estEpoch       uint64
	queued, active int
	blocked        int
	migrations     int
	stats          Stats
	pendGen        uint64
	pending        int
	series         int
	memUsed        sim.Bytes
	events         int
}

// snap takes slave i's wakeSnap; series is the length its estimate
// series would have after extra more samples.
func (c *Coordinator) snap(i, extra int) wakeSnap {
	s := c.slaves[i]
	w := wakeSnap{
		est:        c.estimates[i],
		estEpoch:   c.estEpoch,
		queued:     len(s.queue),
		active:     s.nActive,
		blocked:    s.BlockedOnMemory,
		migrations: s.Migrations,
		stats:      c.stats,
		pending:    c.binder.PendingCount(),
		memUsed:    c.fs.DataNode(s.node.ID).MemUsed(),
		events:     c.eng.Pending(),
	}
	if pb, ok := c.binder.(*PolicyBinder); ok {
		w.pendGen = pb.pendGen
	}
	if s.estSeries != nil {
		w.series = s.estSeries.Len() + extra
	}
	return w
}

// checkedTick ticks slave i, which the awake set would have skipped this
// round, and panics if the tick changed anything: a missing wake.
func (c *Coordinator) checkedTick(i int) {
	before := c.snap(i, 1)
	c.slaves[i].tick()
	c.checkSkip(i, "asleep", "tick", before, c.snap(i, 0))
}

// checkedPull has slave i, which the ready set would have skipped, pull
// and kick as Migrate's RPC does, and panics if that changed anything.
func (c *Coordinator) checkedPull(i int) {
	before := c.snap(i, 0)
	s := c.slaves[i]
	s.pull()
	s.kick()
	c.checkSkip(i, "not ready", "pull", before, c.snap(i, 0))
}

func (c *Coordinator) checkSkip(i int, skipped, what string, before, after wakeSnap) {
	if before != after {
		panic(fmt.Sprintf("migration: slave %d was %s, but a %s at %v changed it: %+v -> %+v",
			i, skipped, what, c.eng.Now(), before, after))
	}
}
