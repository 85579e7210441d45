package migration

import (
	"dyrs/internal/cluster"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// estimator tracks a slave's migration speed as an EWMA over
// seconds-per-byte, so estimates stay meaningful when block sizes vary.
// The paper tracks per-block migration durations (§IV-A); normalizing by
// size is the same estimator generalized to mixed block sizes.
type estimator struct {
	ewma *metrics.EWMA
	seed float64 // seconds per byte at nominal disk bandwidth
}

func newEstimator(alpha float64, nominalBW float64) *estimator {
	e := &estimator{ewma: metrics.NewEWMA(alpha), seed: 1 / nominalBW}
	e.ewma.Set(e.seed)
	return e
}

// observe incorporates a migration that moved size bytes in seconds.
func (e *estimator) observe(seconds float64, size sim.Bytes) {
	e.ewma.Observe(seconds / float64(size))
}

// perByte reports the current estimate in seconds per byte.
func (e *estimator) perByte() float64 { return e.ewma.Value() }

// blockSeconds estimates the migration time for a block of the given size.
func (e *estimator) blockSeconds(size sim.Bytes) float64 {
	return e.ewma.Value() * float64(size)
}

// reset returns the estimator to its seeded state (slave restart).
func (e *estimator) reset() { e.ewma.Set(e.seed) }

// activeMigration is one transfer slot of a slave: an in-flight
// disk-to-memory transfer while bi is non-nil, free otherwise. Its
// completion callback is bound once, when the slave is built, so
// starting a transfer allocates nothing.
type activeMigration struct {
	bi      *blockInfo
	flow    *sim.Flow
	started sim.Time
	span    trace.SpanRef // rate-controlled transfer span, child of the block's migration span
	done    func(sim.Duration)
}

// Slave is the per-DataNode migration agent: it keeps a short local FIFO
// queue of bound migrations, performs them subject to the policy's
// concurrency limit (DYRS serializes to limit disk seek thrash, §III-B),
// maintains the migration-time estimate, and enforces the memory hard
// limit.
type Slave struct {
	c    *Coordinator
	node *cluster.Node

	queue []*blockInfo
	// active holds MaxConcurrent transfer slots, scanned in slot order;
	// nActive counts the busy ones.
	active  []activeMigration
	nActive int

	estimator *estimator
	depth     int
	memLimit  sim.Bytes

	ticker    *sim.Ticker
	stopped   bool
	estSeries *metrics.TimeSeries

	// Migrations counts completed migrations on this slave.
	Migrations int
	// BytesMigrated counts bytes moved into memory on this slave.
	BytesMigrated sim.Bytes
	// BlockedOnMemory counts migration attempts deferred by the hard
	// memory limit.
	BlockedOnMemory int
}

func newSlave(c *Coordinator, node *cluster.Node) *Slave {
	maxActive := c.cfg.MaxConcurrent
	if maxActive <= 0 {
		maxActive = 1
	}
	s := &Slave{
		c:         c,
		node:      node,
		active:    make([]activeMigration, maxActive),
		estimator: newEstimator(c.cfg.EWMAAlpha, node.Cfg.DiskBandwidth),
		depth:     c.cfg.queueDepth(c.fs.Config().BlockSize, node.Cfg.DiskBandwidth),
		memLimit:  sim.Bytes(c.cfg.MemLimitFraction * float64(node.Cfg.MemCapacity)),
	}
	for i := range s.active {
		am := &s.active[i]
		am.done = func(d sim.Duration) { s.finish(am, d) }
	}
	if !c.cfg.DisableEstimateSeries {
		s.estSeries = metrics.NewTimeSeries(node.ID.String())
	}
	s.ticker = sim.NewTicker(c.eng, c.cfg.Heartbeat, s.tick)
	return s
}

// Node returns the cluster node this slave runs on.
func (s *Slave) Node() *cluster.Node { return s.node }

// QueueDepth reports the configured local queue depth.
func (s *Slave) QueueDepth() int { return s.depth }

// EstimateBlockSeconds reports the slave's current estimate of the time
// to migrate one block of the given size.
func (s *Slave) EstimateBlockSeconds(size sim.Bytes) float64 {
	return s.estimator.blockSeconds(size)
}

// occupancy counts queued plus active migrations.
func (s *Slave) occupancy() int {
	return len(s.queue) + s.nActive
}

// tick is the heartbeat: refresh the estimate (including the in-progress
// inflation of §IV-A), report to the master, scavenge if needed, pull
// more work, and make sure the disk is busy.
func (s *Slave) tick() {
	if s.stopped || !s.node.Alive() {
		return
	}
	// In-progress inflation: once an active migration has run longer than
	// its estimate, fold the elapsed time into the estimate every
	// heartbeat rather than waiting for completion (§IV-A). This is what
	// makes DYRS react quickly when residual bandwidth suddenly drops.
	// With several concurrent migrations, the longest-running one is the
	// strongest signal; among equally long ones (started by one kick) the
	// lowest slot wins, so the update never depends on iteration order.
	if !s.c.cfg.DisableInProgressUpdates {
		var worst *blockInfo
		var worstElapsed float64
		for i := range s.active {
			am := &s.active[i]
			if am.bi == nil {
				continue
			}
			elapsed := s.c.eng.Now().Sub(am.started).Seconds()
			if elapsed > s.estimator.blockSeconds(am.bi.size) && elapsed > worstElapsed {
				worst, worstElapsed = am.bi, elapsed
			}
		}
		if worst != nil {
			s.estimator.observe(worstElapsed, worst.size)
		}
	}
	s.c.onHeartbeat(s.node.ID, s.estimator.perByte(), s.occupancy())
	if s.estSeries != nil {
		s.estSeries.Record(s.c.eng.Now().Seconds(), s.estimator.blockSeconds(s.c.fs.Config().BlockSize))
	}

	if used := s.c.fs.DataNode(s.node.ID).MemUsed(); float64(used) > s.c.cfg.ScavengeThreshold*float64(s.memLimit) {
		s.scavenge()
	}

	s.pull()
	s.kick()
}

// pull asks the binder for more work when the local queue has space —
// the slave querying the master (§III-A1).
func (s *Slave) pull() {
	if s.stopped || !s.node.Alive() {
		return
	}
	space := s.depth - s.occupancy()
	if space <= 0 {
		return
	}
	c := s.c
	c.pullBuf = c.binder.OnPull(s.node.ID, space, c.pullBuf[:0])
	for _, bi := range c.pullBuf {
		s.enqueue(bi)
	}
}

// enqueue binds a block to this slave's local queue.
func (s *Slave) enqueue(bi *blockInfo) {
	s.c.transition(bi, stateQueued)
	bi.slave = s.node.ID
	bi.enqueuedAt = s.c.eng.Now()
	s.queue = append(s.queue, bi)
	s.c.hQueue.Observe(int64(len(s.queue)))
	if tr := s.c.tr; tr.Enabled() {
		bi.span.Annotate(trace.Int("slave", int64(s.node.ID)),
			trace.Dur("bound-after", s.c.eng.Now().Sub(bi.span.Begin())))
		tr.Instant("migration", "bind", int(s.node.ID),
			trace.Int("block", int64(bi.id)))
	}
}

// dequeue removes a queued block (eviction / missed read).
func (s *Slave) dequeue(bi *blockInfo) {
	for i, q := range s.queue {
		if q == bi {
			s.removeQueued(i)
			return
		}
	}
}

// removeQueued deletes queue entry i by shifting the tail down in place,
// so the queue's backing array is reused rather than re-grown after
// front pops.
func (s *Slave) removeQueued(i int) {
	n := len(s.queue) - 1
	copy(s.queue[i:], s.queue[i+1:])
	s.queue[n] = nil
	s.queue = s.queue[:n]
}

// kick starts queued migrations while the concurrency limit allows.
func (s *Slave) kick() {
	if s.stopped || !s.node.Alive() {
		return
	}
	for s.nActive < len(s.active) && len(s.queue) > 0 {
		next := s.queue[0]
		dn := s.c.fs.DataNode(s.node.ID)
		if dn.MemUsed()+next.size > s.memLimit {
			// Hard limit reached: leave the command queued until buffer
			// space frees up or the block is discarded on a missed read
			// (§IV-A1).
			s.BlockedOnMemory++
			return
		}
		s.removeQueued(0)
		s.c.transition(next, stateMigrating)
		am := s.freeSlot()
		am.bi, am.started = next, s.c.eng.Now()
		s.nActive++
		if tr := s.c.tr; tr.Enabled() {
			am.span = next.span.Child("migration", "transfer", int(s.node.ID),
				trace.Int("block", int64(next.id)),
				trace.Int("size", int64(next.size)),
				trace.Float("io-weight", s.c.cfg.IOWeight))
		}
		flow, err := dn.MigrateToMemory(next.id, s.c.cfg.IOWeight, am.done)
		if err != nil {
			// Bound to a node that no longer holds a replica (should not
			// happen with a correct binder); drop the migration.
			if tr := s.c.tr; tr.Enabled() {
				am.span.End(trace.Str("outcome", "failed"))
			}
			s.release(am)
			s.c.transition(next, stateNone)
			s.c.stats.Dropped++
			s.c.dropTrace(next, "no-replica")
			continue
		}
		am.flow = flow
	}
}

// freeSlot returns the lowest free transfer slot; callers check that
// one exists.
func (s *Slave) freeSlot() *activeMigration {
	for i := range s.active {
		if s.active[i].bi == nil {
			return &s.active[i]
		}
	}
	panic("migration: no free transfer slot")
}

// slotOf returns the transfer slot running bi, or nil.
func (s *Slave) slotOf(bi *blockInfo) *activeMigration {
	for i := range s.active {
		if s.active[i].bi == bi {
			return &s.active[i]
		}
	}
	return nil
}

// release frees a transfer slot, keeping its bound callback.
func (s *Slave) release(am *activeMigration) {
	am.bi, am.flow, am.span = nil, nil, trace.SpanRef{}
	s.nActive--
}

// finish completes an active migration: update the estimator with the
// true duration, publish the in-memory replica, and continue.
func (s *Slave) finish(am *activeMigration, d sim.Duration) {
	bi := am.bi
	s.estimator.observe(d.Seconds(), bi.size)
	s.Migrations++
	s.BytesMigrated += bi.size
	s.c.hTransfer.Observe(int64(bi.size))
	if tr := s.c.tr; tr.Enabled() {
		am.span.End(trace.Str("outcome", "completed"))
		bi.span.End(trace.Str("outcome", "pinned"), trace.Int("slave", int64(s.node.ID)))
		tr.Inc("migration.completed")
		tr.Add("migration.bytes", bi.size)
	}
	s.release(am)
	s.c.onMigrated(bi, s.node.ID)
	s.kick()
}

// abortActive cancels the in-flight migration of bi, freeing the disk
// for foreground reads, and moves on to the next queued block.
func (s *Slave) abortActive(bi *blockInfo) {
	am := s.slotOf(bi)
	if am == nil {
		return
	}
	s.cancel(am)
	s.kick()
}

// cancel stops a transfer slot's flow, closes its span as aborted and
// frees the slot.
func (s *Slave) cancel(am *activeMigration) {
	if am.flow != nil {
		am.flow.Cancel()
	}
	if tr := s.c.tr; tr.Enabled() {
		am.span.End(trace.Str("outcome", "aborted"))
		tr.Inc("migration.aborted")
	}
	s.release(am)
}

// scavenge clears reference-list entries for jobs the cluster scheduler
// no longer reports as active, then evicts blocks whose lists emptied —
// the memory-leak guard of §III-C3. It walks the node's actual resident
// buffers (in block-ID order, for determinism) rather than the master's
// reference lists, so replicas the master no longer tracks — orphaned by
// a fail-over that wiped the reference lists (§III-C1) — are reclaimed
// instead of occupying the buffer forever.
func (s *Slave) scavenge() {
	for _, id := range s.c.fs.DataNode(s.node.ID).MemBlockIDs() {
		bi := s.c.blockRecord(id)
		if bi == nil || bi.state != stateInMemory || bi.slave != s.node.ID {
			// Resident but unreferenced by the master: an orphan left by a
			// restart. Drop the buffer directly.
			s.c.fs.DropMem(id, s.node.ID)
			s.c.stats.Evicted++
			continue
		}
		// Walk by index; remove swaps the last element into the hole, so
		// the index is only advanced when the current entry survives.
		for i := 0; i < len(bi.refs); {
			job := bi.refs[i]
			if !s.c.sched.JobActive(job) {
				bi.refs.remove(job)
				bi.implicit.remove(job)
			} else {
				i++
			}
		}
		s.c.maybeRelease(bi)
	}
}

// stop halts the slave's heartbeat.
func (s *Slave) stop() {
	s.stopped = true
	s.ticker.Stop()
}
