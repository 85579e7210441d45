package migration

import (
	"fmt"
	"slices"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// Coordinator is the migration framework: the master-side bookkeeping
// (reference lists, block lifecycle, stats) plus one Slave per DataNode.
// The binding policy — which replica of which block migrates where, and
// when that decision is made — is delegated to a Binder.
type Coordinator struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.FS
	cfg Config
	tr  *trace.Tracer // run tracer; nil (no-op) when untraced

	// Streaming metric handles, cached once at construction (nil and
	// no-op when untraced). Histograms aggregate every event exactly —
	// they are never subject to span sampling.
	hLead     *trace.Hist // migration request -> first in-memory read, ns
	hMargin   *trace.Hist // pin -> first in-memory read, ns
	hTransfer *trace.Hist // completed transfer size, bytes
	hQueue    *trace.Hist // slave queue occupancy at each bind

	binder Binder
	slaves []*Slave
	sched  ActiveJobChecker
	// heartbeat ticks the awake slaves, in node order, from one engine
	// event per interval; the engine counts every slave's tick as a model
	// event, visited or not (see awake.go).
	heartbeat *sim.Ticker
	// awake holds one bit per slave, set while it may have work; ready
	// holds one bit per slave, set while a pull or kick on it may change
	// something (see settle).
	awake []uint64
	ready []uint64
	// members is the cluster membership epoch the last round saw.
	members uint64

	// info is the master's block-record table, a dense slice indexed by
	// BlockID (block IDs are small dense integers allocated by the file
	// system). Untracked blocks hold nil. Indexing replaces the map probe
	// the per-read and per-request hot paths used to pay.
	info []*blockInfo
	// recs is the unused tail of the chunk newRecord carves records
	// from. A chunk is never moved, so the pointers in info, in binder
	// lists and in slave queues stay valid for the whole run, also for
	// records a master restart detached.
	recs []blockInfo
	// spare holds released records, each with its reference set's
	// array, for newRecord to reuse before it carves (see recycle).
	spare []*blockInfo
	// jobBlocks lists the blocks each job has requested, for Evict. The
	// lists may retain ids whose reference the job already dropped via
	// implicit eviction — Evict tolerates stale entries, which is cheaper
	// than deleting from the middle of a slice on every NoteRead.
	jobBlocks map[JobID][]dfs.BlockID
	// spareIDs holds id lists of evicted jobs, emptied for reuse by the
	// next jobs that Migrate.
	spareIDs [][]dfs.BlockID
	hints    map[JobID]JobHint

	// rpc is rpcPull bound once, so sending the RPC allocates nothing.
	rpc func()

	// Scratch reused across calls: ids holds the block ids of
	// Migrate's files, fresh collects Migrate's newly pending blocks for
	// Binder.OnMigrate, pullBuf receives Binder.OnPull's blocks. Binders
	// must not retain either of the last two.
	ids     []dfs.BlockID
	fresh   []*blockInfo
	pullBuf []*blockInfo

	// counts holds the master's incremental per-state block tallies,
	// indexed by blockState and maintained exclusively by transition().
	// They are never recomputed by scanning info, so StateCounts stays
	// O(1) with millions of tracked blocks.
	counts [stateInMemory + 1]int

	// estimates holds each slave's last heartbeat report, indexed by
	// node ID; entries no heartbeat has reached yet are unseen.
	estimates []nodeEstimate
	// estEpoch increments whenever a heartbeat actually changes a stored
	// estimate; the DYRS binder uses it to skip Algorithm 1 passes whose
	// inputs have not moved. stale holds one bit per node the binder's
	// next pass must re-read (see PolicyBinder.beginPass).
	estEpoch uint64
	stale    []uint64
	// hintEpoch increments whenever scheduler hints change (set or
	// cleared); ordering policies read hints, so the binder's gate must
	// treat a hint change as an input change.
	hintEpoch uint64

	migratedHooks []func(dfs.BlockID, cluster.NodeID, sim.Time)

	stats Stats
}

// Binder decides replica selection and binding time. Implementations:
// PolicyBinder (any migrating policy.Policy: DYRS, Ignem, CostAware)
// and NaiveBinder. Its methods take the unexported *blockInfo, so only
// this package implements it.
type Binder interface {
	// Name identifies the policy in output tables.
	Name() string
	// OnMigrate receives newly requested blocks. A binder may bind them
	// to slaves immediately (Ignem) or keep them pending until pulled.
	// The slice is the coordinator's scratch: a binder may keep the
	// blocks but must not retain the slice.
	OnMigrate(blocks []*blockInfo)
	// OnPull is invoked when slave n has free local queue space; it
	// appends the blocks to bind to n now (at most space blocks) to out
	// and returns the extended slice. out is the caller's scratch, which
	// the binder must not retain.
	OnPull(n cluster.NodeID, space int, out []*blockInfo) []*blockInfo
	// Remove discards a pending block (missed read or eviction).
	Remove(b *blockInfo)
	// PendingCount reports blocks awaiting binding.
	PendingCount() int
	// Reset drops all pending state (master restart).
	Reset()

	// attach gives the binder its coordinator, before any other call.
	attach(c *Coordinator)
	// stopBinder stops the binder's background work (Shutdown).
	stopBinder()
	// pullsAny reports whether a pull on any slave may bind work, so
	// the heartbeat round and Migrate's RPC must visit every slave. A
	// binder that wakes the slaves it targets reports false.
	pullsAny() bool
	// pullable reports whether a pull by slave n, given queue space, may
	// bind a block the binder has targeted at it.
	pullable(n cluster.NodeID) bool
}

// NewCoordinator wires a migration framework over the file system with
// the given binding policy. A Slave is created for every DataNode.
func NewCoordinator(fs *dfs.FS, cfg Config, binder Binder) *Coordinator {
	cl := fs.Cluster()
	c := &Coordinator{
		eng:       cl.Engine(),
		cl:        cl,
		fs:        fs,
		cfg:       cfg,
		tr:        trace.FromEngine(cl.Engine()),
		binder:    binder,
		sched:     alwaysActive{},
		jobBlocks: make(map[JobID][]dfs.BlockID),
		hints:     make(map[JobID]JobHint),
		estimates: make([]nodeEstimate, cl.Size()),
	}
	// The lead-time histogram is kept without a tracer too, for
	// LeadTimes; a traced run exports the same handle.
	if c.hLead = c.tr.Hist("migration.lead_ns"); c.hLead == nil {
		c.hLead = new(trace.Hist)
	}
	c.hMargin = c.tr.Hist("migration.margin_ns")
	c.hTransfer = c.tr.Hist("migration.transfer_bytes")
	c.hQueue = c.tr.Hist("migration.queue_depth")
	binder.attach(c)
	c.rpc = c.rpcPull
	for _, n := range cl.Nodes() {
		c.slaves = append(c.slaves, newSlave(c, n))
	}
	// Every slave starts awake and stale: none has reported yet, and no
	// pass has read it.
	words := (len(c.slaves) + 63) / 64
	c.awake, c.ready, c.stale = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	setBits(c.awake, len(c.slaves))
	setBits(c.stale, len(c.slaves))
	c.members = cl.MembershipEpoch()
	fs.OnMemRegistered(c.onMemRegistered)
	c.heartbeat = sim.NewTickerN(c.eng, cfg.Heartbeat, len(c.slaves), c.heartbeatRound)
	return c
}

// SetScheduler wires the cluster scheduler used by scavenging.
func (c *Coordinator) SetScheduler(s ActiveJobChecker) {
	if s != nil {
		c.sched = s
	}
}

// Stats returns a copy of the framework counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// transition moves a tracked block to a new lifecycle state, keeping the
// master's incremental per-state counts in step. Every state write in
// the framework goes through here; records detached by a master restart
// keep their slave-side lifecycle but no longer touch the counts.
func (c *Coordinator) transition(bi *blockInfo, to blockState) {
	if bi.state == to {
		return
	}
	if !bi.detached {
		if bi.state != stateNone {
			c.counts[bi.state]--
		}
		if to != stateNone {
			c.counts[to]++
		}
	}
	bi.state = to
}

// StateCounts reports, in O(1), how many master-tracked blocks are in
// each lifecycle state: awaiting binding, bound in a slave queue, being
// migrated, and resident in memory.
func (c *Coordinator) StateCounts() (pending, queued, migrating, inMemory int) {
	return c.counts[statePending], c.counts[stateQueued], c.counts[stateMigrating], c.counts[stateInMemory]
}

// blockRecord returns the tracked record for a block, or nil.
func (c *Coordinator) blockRecord(id dfs.BlockID) *blockInfo {
	if i := int(id); i < len(c.info) {
		return c.info[i]
	}
	return nil
}

// recordChunk is how many block records one chunk holds: 104 KiB per
// chunk, so the records of a whole run cost one allocation per 1,024
// distinct blocks requested.
const recordChunk = 1 << 10

// newRecord makes the record for a block the master does not track and
// enters it in info. It reuses a spare record, emptied but keeping its
// reference set's array, and carves one from the current chunk only
// when none is spare.
func (c *Coordinator) newRecord(id dfs.BlockID) *blockInfo {
	var bi *blockInfo
	if n := len(c.spare); n > 0 {
		bi = c.spare[n-1]
		c.spare = c.spare[:n-1]
		*bi = blockInfo{refs: bi.refs[:0]}
	} else {
		if len(c.recs) == 0 {
			c.recs = make([]blockInfo, recordChunk)
		}
		bi = &c.recs[0]
		c.recs = c.recs[1:]
	}
	bi.id, bi.size = id, c.fs.BlockSize(id)
	c.setRecord(id, bi)
	return bi
}

// recycle gives a record maybeRelease just released back for reuse: it
// leaves info and goes on the spare list. Slave queues and transfer
// slots dropped it before the release, and jobBlocks and Evict hold
// ids, which now resolve to nil, the same no-op a released record was.
// Two kinds of record stay put: a detached one, which the slaves may
// still hold and which info no longer lists, and one still listed in
// the binder's pending list, where a reuse would put another block.
func (c *Coordinator) recycle(bi *blockInfo) {
	if bi.detached || bi.listed {
		return
	}
	c.info[int(bi.id)] = nil
	c.spare = append(c.spare, bi)
}

// setRecord stores a block record. The dense table is sized to the
// whole namespace on first use and at least doubles after that, so
// tracking n blocks costs O(n) total, not O(n²) copies.
func (c *Coordinator) setRecord(id dfs.BlockID, bi *blockInfo) {
	if n := int(id) + 1; n > len(c.info) {
		if n > cap(c.info) {
			grown := make([]*blockInfo, n, max(2*cap(c.info), n, c.fs.NumBlocks()))
			copy(grown, c.info)
			c.info = grown
		} else {
			c.info = c.info[:n]
		}
	}
	c.info[int(id)] = bi
}

// Binder returns the active binding policy.
func (c *Coordinator) Binder() Binder { return c.binder }

// Slave returns the migration slave on the given node.
//
//lint:testapi the root package's memory-blocked benchmarks read a slave's BlockedOnMemory
func (c *Coordinator) Slave(id cluster.NodeID) *Slave { return c.slaves[int(id)] }

// Estimate reports the master's view of a slave's per-byte migration
// time and queue occupancy, as refreshed by heartbeats. Before the first
// heartbeat reaches the master it falls back to the slave's live
// estimate and occupancy, so Algorithm 1 has sane inputs from time zero.
func (c *Coordinator) Estimate(id cluster.NodeID) (perByteSeconds float64, queued int) {
	if e := c.estimates[int(id)]; e.seen {
		return e.perByte, e.queued
	}
	s := c.slaves[int(id)]
	return s.estimator.perByte(), s.occupancy()
}

// Migrate implements Manager. It maps files to blocks (the master's job,
// §III), registers the job on each block's reference list, and hands new
// blocks to the binder. Binding may happen now (Ignem) or lazily on
// slave pulls (DYRS/naive). An unknown file is an error before anything
// changes.
func (c *Coordinator) Migrate(job JobID, files []string, implicitEvict bool) error {
	ids, err := c.fs.AppendFileBlockIDs(c.ids[:0], files)
	if err != nil {
		return fmt.Errorf("migration: %w", err)
	}
	c.ids = ids
	fresh := c.fresh[:0]
	for _, id := range ids {
		bi := c.blockRecord(id)
		if bi == nil || bi.state == stateNone {
			if bi == nil {
				bi = c.newRecord(id)
			}
			if node, ok := c.fs.MemReplica(id); ok {
				// The block is already resident — typically because a
				// master fail-over wiped the reference lists while the
				// slave-side buffer survived (§III-C1). Re-adopt the
				// surviving replica instead of migrating a second copy,
				// which would strand the old one outside any reference
				// list.
				c.transition(bi, stateInMemory)
				bi.slave = node
				c.stats.Readopted++
				if c.tr.Enabled() {
					c.tr.Inc("migration.readopted")
					c.tr.Instant("migration", "readopt", int(node),
						trace.Int("job", int64(job)),
						trace.Int("block", int64(id)))
				}
			} else {
				c.transition(bi, statePending)
				bi.hasTarget = false
				bi.requestedAt = c.eng.Now()
				bi.leadRecorded = false
				c.stats.Requested++
				if c.tr.Enabled() {
					bi.span = c.tr.Begin("migration", "migrate", trace.NodeMaster,
						trace.Int("job", int64(job)),
						trace.Int("block", int64(id)),
						trace.Int("size", int64(bi.size)))
					c.tr.Inc("migration.requested")
				}
				fresh = append(fresh, bi)
			}
		}
		if bi.refs.add(job, implicitEvict) {
			list, ok := c.jobBlocks[job]
			if !ok {
				list = c.spareIDList()
			}
			c.jobBlocks[job] = append(list, id)
		}
	}
	c.fresh = fresh
	if len(fresh) > 0 {
		c.binder.OnMigrate(fresh)
		// Kick the slaves so migration can begin within an RPC round-trip
		// instead of waiting out a heartbeat; slaves pull per policy.
		c.cl.RPC(c.rpc)
	}
	return nil
}

// Evict implements Manager: the job's explicit eviction command routed
// through the master (§III-C3). Blocks are released in block-ID order so
// the run — including any recorded trace — is independent of map
// iteration order.
func (c *Coordinator) Evict(job JobID) {
	ids := c.jobBlocks[job]
	slices.Sort(ids)
	for _, id := range ids {
		bi := c.blockRecord(id)
		if bi == nil {
			continue
		}
		// Stale entries (reference already dropped by implicit eviction)
		// and duplicates are no-ops here: remove misses and maybeRelease
		// sees a released record.
		bi.refs.remove(job)
		c.maybeRelease(bi)
	}
	delete(c.jobBlocks, job)
	if cap(ids) > 0 && len(c.spareIDs) < maxSpareIDLists {
		c.spareIDs = append(c.spareIDs, ids[:0])
	}
	if _, ok := c.hints[job]; ok {
		delete(c.hints, job)
		c.hintEpoch++
	}
}

// maxSpareIDLists caps the pool of recycled job id lists, as the dfs op
// pools are capped: past a burst of concurrent jobs, lists beyond the
// cap are left to the garbage collector.
const maxSpareIDLists = 1 << 10

// spareIDList returns an empty id list recycled from an evicted job, or
// nil when none is spare.
func (c *Coordinator) spareIDList() []dfs.BlockID {
	n := len(c.spareIDs)
	if n == 0 {
		return nil
	}
	list := c.spareIDs[n-1]
	c.spareIDs[n-1] = nil
	c.spareIDs = c.spareIDs[:n-1]
	return list
}

// NoteRead implements Manager. For implicit-eviction jobs the job is
// removed from the block's reference list as soon as it reads the block;
// a block whose list empties is released — evicted if resident, or
// discarded from the migration pipeline if the read beat the migration
// ("discarded due to missed reads", §IV-A1).
func (c *Coordinator) NoteRead(job JobID, block dfs.BlockID) {
	bi := c.blockRecord(block)
	if bi == nil {
		return
	}
	inFlight := false
	switch bi.state {
	case stateInMemory:
		c.stats.MemoryHits++
		if !bi.leadRecorded {
			bi.leadRecorded = true
			now := c.eng.Now()
			c.hLead.Observe(int64(now.Sub(bi.requestedAt)))
			c.hMargin.Observe(int64(now.Sub(bi.pinnedAt)))
		}
	case statePending, stateQueued, stateMigrating:
		c.stats.MissedReads++
		inFlight = true
	}
	if inFlight && !c.cfg.CancelOnMissedRead {
		// Policies without missed-read handling (Ignem) leave the
		// now-pointless migration in the pipeline.
		return
	}
	if i := bi.refs.find(job); i >= 0 && bi.refs[i].implicit {
		bi.refs.removeAt(i)
		// The id stays in jobBlocks[job]; Evict skips the stale entry.
		c.maybeRelease(bi)
	}
}

// maybeRelease frees a block whose reference list has emptied and
// recycles its record.
func (c *Coordinator) maybeRelease(bi *blockInfo) {
	if len(bi.refs) > 0 {
		return
	}
	switch bi.state {
	case statePending:
		c.binder.Remove(bi)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "released-pending")
		c.recycle(bi)
	case stateQueued:
		c.slaves[int(bi.slave)].dequeue(bi)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "released-queued")
		c.recycle(bi)
	case stateMigrating:
		if c.cfg.CancelOnMissedRead {
			// Discard the in-flight migration: its disk bandwidth is
			// better spent on the read that just made it pointless. In
			// the paper's testbed migrations take ~2s so this race
			// window is negligible; under a saturated map phase it is
			// not, and "discarded due to missed reads" (§IV-A1) extends
			// naturally to the active transfer (munmap releases it).
			c.slaves[int(bi.slave)].abortActive(bi)
			c.transition(bi, stateNone)
			c.stats.Dropped++
			c.dropTrace(bi, "missed-read")
			c.recycle(bi)
			return
		}
		// Policies without missed-read handling let the migration
		// finish; completion sees the empty list and evicts immediately.
	case stateInMemory:
		c.fs.DropMem(bi.id, bi.slave)
		c.transition(bi, stateNone)
		c.stats.Evicted++
		c.recycle(bi)
	}
}

// dropTrace closes a block's migration span as dropped with the given
// reason. A no-op when untraced or when the span already ended.
func (c *Coordinator) dropTrace(bi *blockInfo, reason string) {
	if c.tr.Enabled() {
		bi.span.End(trace.Str("outcome", "dropped"), trace.Str("reason", reason))
		c.tr.Inc("migration.dropped")
	}
}

// onHeartbeat records a slave's estimate for the binder's use. The
// estimate epoch only advances when the stored value actually changes,
// so an idle fleet's heartbeats do not force binder passes.
func (c *Coordinator) onHeartbeat(n cluster.NodeID, perByte float64, queued int) {
	e := nodeEstimate{perByte: perByte, queued: queued, seen: true}
	if est := &c.estimates[int(n)]; *est != e {
		*est = e
		c.estEpoch++
		setBit(c.stale, int(n))
	}
}

// onMigrated finalizes a completed migration.
func (c *Coordinator) onMigrated(bi *blockInfo, at cluster.NodeID) {
	c.transition(bi, stateInMemory)
	bi.slave = at
	bi.pinnedAt = c.eng.Now()
	c.stats.Migrated++
	c.stats.BytesMigrated += bi.size
	for _, fn := range c.migratedHooks {
		fn(bi.id, at, c.eng.Now())
	}
	c.maybeRelease(bi) // evicts right away if every reader already came and went
}

// OnMigrated registers an instrumentation callback invoked whenever a
// migration completes (used to reconstruct migration timelines, Fig. 10).
func (c *Coordinator) OnMigrated(fn func(block dfs.BlockID, node cluster.NodeID, at sim.Time)) {
	c.migratedHooks = append(c.migratedHooks, fn)
}

// RestartMaster simulates a master fail-over: all soft state about
// pending migrations and reference lists is lost (§III-C1). In-memory
// replicas survive at the slaves; scavenging reclaims them once their
// jobs finish.
func (c *Coordinator) RestartMaster() {
	c.binder.Reset()
	// The pull buckets are gone; the slaves keep their queues.
	for _, s := range c.slaves {
		c.settle(s)
	}
	// The dense info table walks in block-ID order by construction, so
	// the trace (span ends, drop counters) is deterministic.
	for _, bi := range c.info {
		if bi == nil {
			continue
		}
		switch bi.state {
		case statePending:
			c.transition(bi, stateNone)
			c.stats.Dropped++
			c.dropTrace(bi, "master-restart")
		case stateQueued, stateMigrating, stateInMemory:
			// Slave-side state persists; the new master relearns it as
			// slaves heartbeat and scavenge. The record leaves the
			// master's books (and its incremental counts) now; detaching
			// it keeps later slave-side transitions from double-counting
			// against a re-adopted successor record.
			if !bi.detached {
				c.counts[bi.state]--
				bi.detached = true
			}
		}
	}
	c.info = nil
	c.jobBlocks = make(map[JobID][]dfs.BlockID)
}

// RestartSlaveProcess simulates a slave process crash + restart: the
// OS reclaims all locked buffers, the master drops its state about blocks
// buffered there, and bound-but-unfinished migrations are lost (§III-C2).
func (c *Coordinator) RestartSlaveProcess(id cluster.NodeID) {
	c.wake(id)
	s := c.slaves[int(id)]
	for _, bi := range s.queue {
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "slave-restart")
	}
	s.queue = nil
	// Abort active transfers in block-ID order, so the span ends emitted
	// here do not depend on which slot each transfer happened to take.
	// There are at most MaxConcurrent, so a selection scan suffices.
	for s.nActive > 0 {
		var am *activeMigration
		for i := range s.active {
			if a := &s.active[i]; a.bi != nil && (am == nil || a.bi.id < am.bi.id) {
				am = a
			}
		}
		bi := am.bi
		s.cancel(am)
		c.transition(bi, stateNone)
		c.stats.Dropped++
		c.dropTrace(bi, "slave-restart")
	}
	// Blocks buffered in memory on this node are gone.
	for _, bi := range c.info {
		if bi != nil && bi.state == stateInMemory && bi.slave == id {
			c.transition(bi, stateNone)
			c.stats.Evicted++
		}
	}
	c.fs.DropAllMem(id)
	s.estimator.reset()
	c.settle(s)
}

// ScavengeAll runs the scavenging pass on every slave immediately,
// regardless of the memory-pressure threshold that normally gates it.
// After all jobs have finished and evicted, a ScavengeAll leaves no
// block resident: anything still buffered is either unreferenced (and
// released here) or orphaned by a restart (and reclaimed here). The
// fuzzing harness calls this at end-of-run so "no buffered bytes
// remain" is checkable as a hard invariant.
func (c *Coordinator) ScavengeAll() {
	for _, s := range c.slaves {
		s.scavenge()
	}
}

// Shutdown stops the slaves' heartbeat and any binder background
// thread, so that an Engine.Run after it can drain the event queue. A
// run that ends by dropping the engine needs no Shutdown.
func (c *Coordinator) Shutdown() {
	for _, s := range c.slaves {
		s.stopped = true
	}
	c.heartbeat.Stop()
	c.binder.stopBinder()
}

// PendingBlocks reports the number of blocks the binder is still holding
// unbound.
func (c *Coordinator) PendingBlocks() int { return c.binder.PendingCount() }

// QueuedBlocks reports blocks bound to slave queues (including active).
func (c *Coordinator) QueuedBlocks() int {
	total := 0
	for _, s := range c.slaves {
		total += s.occupancy()
	}
	return total
}

// LeadTimes returns the distribution of migration lead times: for each
// block read from memory, the time from its migration request to its
// first read, in nanoseconds. It is kept whether or not a tracer is
// attached.
func (c *Coordinator) LeadTimes() *trace.Hist { return c.hLead }

// EstimateSeries returns the recorded migration-time-estimate time series
// for a slave (seconds to migrate one standard block, sampled each
// heartbeat) — the data behind Fig. 9. Nil when recording is disabled
// via Config.DisableEstimateSeries.
func (c *Coordinator) EstimateSeries(id cluster.NodeID) *metrics.TimeSeries {
	return c.slaves[int(id)].estSeries
}

var _ Manager = (*Coordinator)(nil)
