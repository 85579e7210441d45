package sim

import (
	"fmt"
	"sync/atomic" //lint:shardsync Stop's flag, set from any shard's event
)

// This file implements parallel-in-virtual-time execution: a
// ShardedEngine coordinates N shard Engines that advance concurrently
// under conservative synchronization, with a determinism contract that
// is *byte-identical* to sequential execution regardless of worker
// count or thread scheduling.
//
// # Model
//
// Each shard is a full Engine — private event queue, sequence counter,
// clock, RNG stream and free pool — that owns the model state homed on
// its partition (e.g. the Resources and DataNodes of one rack). Local
// scheduling (Schedule/At/Cancel/Ticker) is unchanged. The ONLY way
// state on another shard may be touched is Engine.Send, which stages a
// timestamped message for the destination shard.
//
// # Conservative windows
//
// Execution proceeds in rounds. Each round the coordinator computes
//
//	T   = min over shards of the next live event time
//	cap = T + lookahead - 1
//
// and every shard executes its local events with at <= cap — in
// parallel, on up to Workers goroutines. Because a cross-shard message
// sent at time s arrives no earlier than s + lookahead > cap, no event
// executed inside the window can affect another shard within the same
// window: windows are causally closed, which is exactly the
// Chandy-Misra-Bryant lookahead argument. The window sequence is a pure
// function of virtual-time state, so it is identical at any worker
// count.
//
// # Deterministic merge
//
// At the barrier after each round, staged messages are delivered in a
// fixed order: source shards in index order, each source's messages in
// send order. Delivery schedules the callback on the destination's own
// queue, so a delivered message gets the destination's next sequence
// numbers in that fixed order. Together with the queue's strict
// (time, seq) pop order this realizes the merge rule "virtual time,
// then stable sequence number": messages with distinct arrival times
// order by time; same-instant messages order by (source shard, send
// index); and messages always sort after same-instant events the
// destination had already scheduled in an earlier window — all
// independent of thread scheduling.
//
// # Solo fast path
//
// When exactly one shard has pending events and no messages are in
// flight — in particular for every model that pins itself to shard 0
// and never calls Send — the coordinator runs that shard directly on
// the calling goroutine with the sequential engine's loop. The only
// per-event additions are the execution digest fold and a check of the
// (empty) outbox, so a pinned model costs the same as a standalone
// Engine and produces the identical event order, RNG stream, trace
// bytes and counters.
type ShardedEngine struct {
	shards    []*Engine
	lookahead Duration
	workers   int

	// Round state shared with workers. windowCap is written by the
	// coordinator strictly before the round's work is handed out and read
	// by workers only for shards received from the work channel, so every
	// access is ordered by a channel operation.
	windowCap Time
	busy      []*Engine
	work      chan *Engine  //lint:shardsync coordinator->worker handoff
	done      chan struct{} //lint:shardsync worker->coordinator barrier
	running   bool

	// stop is set by Stop, possibly from an event running on a worker,
	// and read only by the coordinator: between events on the solo path,
	// and after each window's barrier.
	stop atomic.Bool

	prof       ShardProfile
	profBefore []uint64 // fired-count snapshot scratch, indexed by shard
}

// ShardProfile is the coordinator's per-shard execution accounting:
// how rounds split between the solo fast path and coordinated windows,
// how often each shard participated in a window versus stalled on
// lookahead (was busy but its next event lay beyond the window cap, so
// it burned a barrier without executing anything), how many events each
// shard executed inside coordinated windows, and the cross-shard
// message volume per (source, destination) edge. Every field is
// maintained by the coordinator goroutine only — stall and send counts
// are pure functions of virtual-time state, so the profile is identical
// at any worker count.
type ShardProfile struct {
	Rounds       uint64     // coordinated (multi-shard) windows run
	SoloRounds   uint64     // solo fast-path entries
	SoloExecuted uint64     // events executed on the solo path
	Windows      []uint64   // per shard: coordinated windows it was busy in
	Stalled      []uint64   // per shard: windows it was busy but executed nothing
	Executed     []uint64   // per shard: events executed in coordinated windows
	Sends        [][]uint64 // [src][dst] cross-shard messages delivered
	Delivered    uint64     // total cross-shard messages delivered
}

// Profile returns a snapshot copy of the coordinator's execution
// profile. Call it between Run calls (or after Run returns); the
// coordinator owns the live counters while running.
func (se *ShardedEngine) Profile() ShardProfile {
	p := se.prof
	p.Windows = append([]uint64(nil), se.prof.Windows...)
	p.Stalled = append([]uint64(nil), se.prof.Stalled...)
	p.Executed = append([]uint64(nil), se.prof.Executed...)
	p.Sends = make([][]uint64, len(se.prof.Sends))
	for i, row := range se.prof.Sends {
		p.Sends[i] = append([]uint64(nil), row...)
	}
	return p
}

// outMsg is one staged cross-shard message: run fn on shard dst at
// virtual time at. Messages stage in the sending shard's private outbox
// (only its own worker appends) and are merged at the next barrier.
type outMsg struct {
	dst int
	at  Time
	fn  func()
}

// maxOutbox bounds a shard's staged messages per window. A window is at
// most lookahead long, so any model that trips this is sending orders
// of magnitude more control traffic than virtual time can deliver —
// almost certainly a runaway send loop.
const maxOutbox = 1 << 22

// shardSeedMix decorrelates per-shard RNG streams; shard 0 keeps the
// root seed so a pinned model draws the exact stream NewEngine(seed)
// would.
const shardSeedMix = 0x9E3779B97F4A7C15

// NewShardedEngine creates an engine partitioned into the given number
// of logical shards. lookahead must be positive: it is the minimum
// cross-shard latency the model guarantees (Send enforces it), and the
// width of each conservative execution window.
//
// shards == 1 returns a coordinator over a single plain Engine with no
// parallel machinery at all — Shard(0) is byte-for-byte today's
// sequential engine.
func NewShardedEngine(seed int64, shards int, lookahead Duration) *ShardedEngine {
	if shards < 1 {
		panic("sim: ShardedEngine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: ShardedEngine lookahead must be positive")
	}
	se := &ShardedEngine{
		shards:     make([]*Engine, shards),
		lookahead:  lookahead,
		workers:    shards,
		busy:       make([]*Engine, 0, shards),
		profBefore: make([]uint64, shards),
	}
	se.prof.Windows = make([]uint64, shards)
	se.prof.Stalled = make([]uint64, shards)
	se.prof.Executed = make([]uint64, shards)
	se.prof.Sends = make([][]uint64, shards)
	for i := range se.prof.Sends {
		se.prof.Sends[i] = make([]uint64, shards)
	}
	for i := range se.shards {
		sh := NewEngine(seed ^ int64(uint64(i)*shardSeedMix))
		sh.shard = i
		if shards > 1 {
			sh.parent = se
		}
		se.shards[i] = sh
	}
	return se
}

// Shard returns the engine of the given shard. Model setup code builds
// each partition's components against its home shard; shard 0 is the
// conventional control/master shard.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// SetWorkers bounds the parallel execution lanes (goroutines) used for
// multi-shard windows. Worker count affects wall-clock speed only —
// results are byte-identical at any value. Defaults to the shard count;
// values are clamped to [1, shard count].
func (se *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(se.shards) {
		n = len(se.shards)
	}
	se.workers = n
}

// EventsFired sums executed events across all shards.
func (se *ShardedEngine) EventsFired() uint64 {
	var n uint64
	for _, sh := range se.shards {
		n += sh.fired
	}
	return n
}

// Digest folds the per-shard execution digests in shard order. Two runs
// of the same model are byte-equivalent iff they executed the same
// events at the same (time, seq) on every shard, which this digest
// fingerprints without tracing; it is the cheap invariance check the
// differential tests compare across worker counts. Digests are
// maintained by sharded execution only — a standalone Engine reports 0.
func (se *ShardedEngine) Digest() uint64 {
	var h uint64 = digestInit
	for _, sh := range se.shards {
		h = mixDigest(h, sh.digest, sh.fired)
	}
	return h
}

// Stop makes the current Run return at the next window barrier, after
// every shard has finished the window (immediately, in solo mode). It
// may be called from an event on any shard: it only sets the
// coordinator's flag, which workers never read.
func (se *ShardedEngine) Stop() { se.stop.Store(true) }

// Run executes events until every shard's queue drains (and no message
// is in flight) or Stop is called.
func (se *ShardedEngine) Run() { se.run(false, 0) }

// RunUntil executes events with timestamps <= t, then advances every
// shard clock to exactly t (unless stopped early, mirroring
// Engine.RunUntil).
func (se *ShardedEngine) RunUntil(t Time) { se.run(true, t) }

// Send schedules fn to run on shard dst after delay d of virtual time.
// It is the only legal way to affect state owned by another shard: the
// callback runs on the destination shard's goroutine, so it must touch
// only destination-owned state and immutable message payload.
//
// Cross-shard sends must respect the engine's lookahead (d >=
// lookahead); violating it panics, because a shorter delay would let a
// message land inside the destination's current execution window and
// break the determinism guarantee. Sends to the engine's own shard are
// ordinary local schedules with no minimum delay. On a standalone
// engine (no ShardedEngine), only dst 0 is valid and Send degenerates
// to Schedule — model code written against Send runs unchanged, and
// unpartitioned, on a plain Engine.
func (e *Engine) Send(dst int, d Duration, fn func()) {
	p := e.parent
	if p == nil {
		if dst != 0 {
			panic(fmt.Sprintf("sim: Send to shard %d on an unsharded engine", dst))
		}
		e.Schedule(d, fn)
		return
	}
	if dst < 0 || dst >= len(p.shards) {
		panic(fmt.Sprintf("sim: Send to shard %d of %d", dst, len(p.shards)))
	}
	if dst == e.shard {
		e.Schedule(d, fn)
		return
	}
	if d < p.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send with delay %v below lookahead %v", d, p.lookahead))
	}
	if len(e.out) >= maxOutbox {
		panic("sim: shard outbox overflow — runaway cross-shard send loop?")
	}
	e.out = append(e.out, outMsg{dst: dst, at: e.now.Add(d), fn: fn})
}

// nextLiveAt skims tombstones and reports the shard's next live event
// time.
func (e *Engine) nextLiveAt() (Time, bool) {
	ev := e.head()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// digestInit is the FNV-1a 64-bit offset basis; mixDigest folds with
// the FNV prime.
const digestInit = 14695981039346656037

func mixDigest(h, a, b uint64) uint64 {
	const prime = 1099511628211
	h ^= a
	h *= prime
	h ^= b
	h *= prime
	return h
}

// runWindow executes the shard's local events with at <= cap, in strict
// (time, seq) order. It is Engine.step's loop plus the digest fold;
// workers run it concurrently on disjoint shards. It never checks for a
// stop: a window always runs to its cap, so a stop takes effect at the
// same barrier at any worker count.
func (e *Engine) runWindow(cap Time) {
	for {
		if ev := e.head(); ev == nil || ev.at > cap {
			return
		}
		ev := e.events.popMin()
		e.now = ev.at
		e.fired++
		e.digest = mixDigest(e.digest, uint64(ev.at), ev.seq)
		fire(ev)
		e.release(ev)
	}
}

// runSolo is the fast path when sh is the only shard with pending work:
// the sequential engine loop, uninterrupted by windows, breaking back
// to coordinated mode only if an event stages a cross-shard message.
// It runs on the coordinator's goroutine, so it checks for a stop after
// every event. sh.stopped is set only on a one-shard coordinator, whose
// shard has no parent to forward its own Stop to.
func (se *ShardedEngine) runSolo(sh *Engine, bounded bool, target Time) {
	for !se.stop.Load() && !sh.stopped {
		if ev := sh.head(); ev == nil || (bounded && ev.at > target) {
			return
		}
		ev := sh.events.popMin()
		sh.now = ev.at
		sh.fired++
		sh.digest = mixDigest(sh.digest, uint64(ev.at), ev.seq)
		fire(ev)
		sh.release(ev)
		if len(sh.out) != 0 {
			return
		}
	}
}

// deliver merges every staged cross-shard message into its destination
// queue: source shards in index order, each outbox in send order. The
// destination assigns its next sequence numbers in exactly that order,
// realizing the (time, then stable sequence) merge rule.
func (se *ShardedEngine) deliver() {
	for _, src := range se.shards {
		if len(src.out) == 0 {
			continue
		}
		se.prof.Delivered += uint64(len(src.out))
		edges := se.prof.Sends[src.shard]
		for i := range src.out {
			m := &src.out[i]
			edges[m.dst]++
			se.shards[m.dst].At(m.at, m.fn)
			m.fn = nil // don't pin the closure in the outbox backing array
		}
		src.out = src.out[:0]
	}
}

// run is the coordinator loop: deliver, census, then either the solo
// fast path or one conservative window executed across workers.
func (se *ShardedEngine) run(bounded bool, target Time) {
	se.stop.Store(false)
	for _, sh := range se.shards {
		sh.stopped = false
	}
	defer se.stopWorkers()
	for {
		se.deliver()

		// Census: which shards have work, and the global minimum next
		// event time that anchors this round's window.
		se.busy = se.busy[:0]
		var minAt Time
		for _, sh := range se.shards {
			at, ok := sh.nextLiveAt()
			if !ok {
				continue
			}
			if len(se.busy) == 0 || at < minAt {
				minAt = at
			}
			se.busy = append(se.busy, sh)
		}
		if len(se.busy) == 0 {
			break
		}
		if bounded && minAt > target {
			break
		}
		if len(se.busy) == 1 {
			sh := se.busy[0]
			se.prof.SoloRounds++
			before := sh.fired
			se.runSolo(sh, bounded, target)
			se.prof.SoloExecuted += sh.fired - before
			if se.stop.Load() || sh.stopped {
				return
			}
			continue
		}

		cap := minAt.Add(se.lookahead - 1) // saturates, so a head at the clock's end still runs
		if bounded && cap > target {
			cap = target
		}
		se.runRound(cap)
		if se.stop.Load() {
			return
		}
	}
	if bounded {
		for _, sh := range se.shards {
			if sh.now < target {
				sh.now = target
			}
		}
	}
}

// runRound executes one window on every busy shard. With one worker the
// shards run inline in index order — the sequential reference the
// parallel schedule must (and does) match byte for byte.
func (se *ShardedEngine) runRound(cap Time) {
	se.prof.Rounds++
	for _, sh := range se.busy {
		se.profBefore[sh.shard] = sh.fired
	}
	if se.workers <= 1 {
		for _, sh := range se.busy {
			sh.runWindow(cap)
		}
	} else {
		se.windowCap = cap
		se.startWorkers()
		for _, sh := range se.busy {
			se.work <- sh //lint:shardsync hand a shard's window to a worker
		}
		for range se.busy {
			<-se.done //lint:shardsync barrier: wait for every window to finish
		}
	}
	// Attribute the round after the barrier: the fired deltas are pure
	// virtual-time facts, so the profile is identical at any worker count.
	for _, sh := range se.busy {
		se.prof.Windows[sh.shard]++
		delta := sh.fired - se.profBefore[sh.shard]
		if delta == 0 {
			se.prof.Stalled[sh.shard]++ // busy, but next event beyond the lookahead cap
		} else {
			se.prof.Executed[sh.shard] += delta
		}
	}
}

// startWorkers lazily spawns the execution lanes for this Run call;
// stopWorkers (deferred in run) retires them, so a simulation that
// never leaves the solo path spawns no goroutines at all.
func (se *ShardedEngine) startWorkers() {
	if se.running {
		return
	}
	se.running = true
	se.work = make(chan *Engine)                  //lint:shardsync
	se.done = make(chan struct{}, len(se.shards)) //lint:shardsync buffered so workers never block the coordinator
	for i := 0; i < se.workers; i++ {
		// Channels are passed by value so a retiring pool never touches
		// the se.work/se.done fields a later Run call may be rebuilding.
		go se.worker(se.work, se.done) //lint:shardsync audited lanes; shards are disjoint and rounds are channel-ordered
	}
}

func (se *ShardedEngine) worker(work <-chan *Engine, done chan<- struct{}) { //lint:shardsync
	for sh := range work { //lint:shardsync
		sh.runWindow(se.windowCap)
		done <- struct{}{} //lint:shardsync
	}
}

func (se *ShardedEngine) stopWorkers() {
	if !se.running {
		return
	}
	close(se.work) //lint:shardsync
	se.running = false
}
