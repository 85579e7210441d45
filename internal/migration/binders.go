package migration

import (
	"fmt"
	"math/bits"

	"dyrs/internal/cluster"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// PolicyBinder drives any policy.Policy as a migration binder. It owns
// everything the paper's master does around the decision — the pending
// list with O(1) tombstoning, the per-target pull buckets, the
// input-change gate, the background update ticker — and delegates the
// decision itself (which replica migrates where) to the policy's
// Begin/Assign pass.
//
// Policies with BindImmediately() == true (Ignem) skip the pending
// machinery entirely: OnMigrate assigns and enqueues on the spot, and
// no update ticker runs.
//
// With policy.DYRS this binder reproduces the pre-extraction DYRS
// binder byte for byte: the golden corpus in internal/harness, recorded
// while that binder still existed, pins traces, stats and counters
// across 72 scenarios.
type PolicyBinder struct {
	c   *Coordinator
	pol policy.Policy
	// views is the dense NodeView table handed to the policy each pass,
	// kept across passes and refreshed in place between them;
	// viewMembers is the membership epoch it has caught up with (see
	// beginPass).
	views       []policy.NodeView
	viewMembers uint64
	// eager is the skip oracle's copy of views, rebuilt in full every
	// pass (see checkViews); nil unless built with dyrs_wakecheck.
	eager []policy.NodeView
	// pending is the master's unbound-block list, in FIFO arrival order
	// (reordered only by the configured OrderPolicy). Entries are
	// tombstoned in place when bound or removed (bi.inPending cleared)
	// and reclaimed in bulk at the next full Algorithm 1 pass, so no
	// binder operation is O(pending) per block. bi.listed marks a record
	// with an entry, live or tombstoned, until the entry is reclaimed.
	pending []*blockInfo
	dead    int // tombstoned entries still in pending
	// targets buckets the pending list by current Algorithm 1 target,
	// rebuilt on every full pass. OnPull(n) consumes bucket n from
	// heads[n] forward instead of scanning the whole pending list — at
	// datacenter scale every slave pulls every heartbeat, and the scan
	// was quadratic in cluster size.
	targets [][]*blockInfo
	heads   []int
	// filled lists the nodes whose bucket is non-empty, so a pass
	// empties only those.
	filled []cluster.NodeID
	ticker *sim.Ticker
	// Updates counts Algorithm 1 passes that did work; SkippedUpdates
	// counts ticks the input-change gate short-circuited.
	Updates        int
	SkippedUpdates int

	// Input-change gate: a pass is skipped when the pending set, the
	// heartbeat estimates and cluster membership are all unchanged since
	// the last pass — at datacenter scale most 500ms ticks are exactly
	// that. A pass is forced after maxSkippedPasses so targets built on
	// the NameNode's *stale* liveness view (which drifts with time, not
	// with events) are still refreshed with bounded delay.
	pendGen       uint64
	lastPendGen   uint64
	lastEstEpoch  uint64
	lastHintEpoch uint64
	lastMembers   uint64
	primed        bool
	skipped       int

	// repBuf is the reusable live-replica scratch handed to the policy;
	// per-pass numeric state lives inside the policy itself.
	repBuf []cluster.NodeID
}

// maxSkippedPasses bounds how many consecutive ticker passes the
// input-change gate may skip before forcing a full Algorithm 1 pass.
const maxSkippedPasses = 8

// NewDYRSBinder returns the DYRS binding policy: delayed binding with
// Algorithm 1 earliest-finish targeting (§III-A).
func NewDYRSBinder() *PolicyBinder { return NewPolicyBinder(policy.NewDYRS()) }

// NewPolicyBinder wraps a target-selection policy as a binder.
func NewPolicyBinder(p policy.Policy) *PolicyBinder { return &PolicyBinder{pol: p} }

// BinderByName maps a policy name from policy.Names to a binder.
func BinderByName(name string) (Binder, error) {
	p, err := policy.New(name)
	if err != nil {
		return nil, err
	}
	return NewPolicyBinder(p), nil
}

// Name implements Binder.
func (b *PolicyBinder) Name() string { return b.pol.Name() }

func (b *PolicyBinder) attach(c *Coordinator) {
	b.c = c
	b.views = make([]policy.NodeView, c.cl.Size())
	b.viewMembers = c.cl.MembershipEpoch()
	b.targets = make([][]*blockInfo, c.cl.Size())
	b.heads = make([]int, c.cl.Size())
	if !b.pol.BindImmediately() {
		// The target-update thread runs off the critical path of
		// master-slave coordination (§III-D). Immediate policies decide
		// at OnMigrate and need no background pass.
		b.ticker = sim.NewTicker(c.eng, c.cfg.TargetUpdateInterval, b.UpdateTargets)
	}
}

// beginPass brings the policy's view of the master's heartbeat state
// (liveness, per-byte estimates, queue occupancy) up to date and starts
// a pass over it. The view is kept across passes and only the stale
// nodes are re-read: those whose stored estimate a heartbeat changed,
// those no heartbeat has reached yet (Estimate reads their live
// state), and every node once cluster membership moves.
func (b *PolicyBinder) beginPass() {
	c := b.c
	if e := c.cl.MembershipEpoch(); e != b.viewMembers {
		b.viewMembers = e
		setBits(c.stale, len(b.views))
	}
	for w, word := range c.stale {
		c.stale[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			c.readView(b.views, i)
			if !c.estimates[i].seen {
				setBit(c.stale, i)
			}
		}
	}
	if wakeCheck {
		b.checkViews()
	}
	b.pol.Begin(policy.View{
		Nodes:    b.views,
		StdBlock: c.fs.Config().BlockSize,
		Rand:     c.eng.Rand(),
	})
}

// readView reads node i's view into views. A dead node keeps its last
// estimate and is marked untargetable.
func (c *Coordinator) readView(views []policy.NodeView, i int) {
	if !c.slaves[i].node.Alive() {
		views[i].Alive = false
		return
	}
	per, queued := c.Estimate(cluster.NodeID(i))
	views[i] = policy.NodeView{Alive: true, PerByte: per, Queued: queued}
}

// checkViews is the skip oracle for the kept view: it re-reads every
// node into a second table and panics if the kept view differs, which
// would mean a missing stale mark.
func (b *PolicyBinder) checkViews() {
	if b.eager == nil {
		b.eager = make([]policy.NodeView, len(b.views))
	}
	for i := range b.eager {
		b.c.readView(b.eager, i)
		if b.views[i] != b.eager[i] {
			panic(fmt.Sprintf("migration: node %d's view at %v is %+v, but a full rebuild reads %+v",
				i, b.c.eng.Now(), b.views[i], b.eager[i]))
		}
	}
}

// OnMigrate adds blocks to the pending list and refreshes targets so
// the immediately following pulls see them — or, for immediate
// policies, assigns and enqueues on the spot.
func (b *PolicyBinder) OnMigrate(blocks []*blockInfo) {
	if b.pol.BindImmediately() {
		b.beginPass()
		for _, bi := range blocks {
			b.repBuf = b.c.fs.LiveReplicas(bi.id, b.repBuf[:0])
			target, ok := b.pol.Assign(policy.Request{Block: bi.id, Size: bi.size, Replicas: b.repBuf})
			if !ok {
				b.c.transition(bi, stateNone)
				b.c.stats.Dropped++
				b.c.dropTrace(bi, "no-replica")
				continue
			}
			b.c.slaves[int(target)].enqueue(bi)
		}
		return
	}
	for _, bi := range blocks {
		if bi.inPending {
			continue
		}
		bi.inPending = true
		if bi.listed {
			// Re-requested before a pass reclaimed its tombstone: revive
			// the entry rather than list the block twice.
			b.dead--
			continue
		}
		bi.listed = true
		b.pending = append(b.pending, bi)
	}
	b.pendGen++
	b.UpdateTargets()
}

// OnPull hands the slave the pending blocks currently targeted at it, in
// FIFO order, up to the free queue space. Blocks targeted elsewhere stay
// pending even if this slave has room — leaving a slow node idle beats
// creating a straggler (§III-A2).
func (b *PolicyBinder) OnPull(n cluster.NodeID, space int, out []*blockInfo) []*blockInfo {
	if space <= 0 || len(b.pending) == b.dead {
		return out
	}
	q := b.targets[int(n)]
	i := b.heads[int(n)]
	bound := 0
	for i < len(q) && bound < space {
		bi := q[i]
		i++
		if !bi.inPending || !bi.hasTarget || bi.target != n {
			continue // tombstoned since the bucket was built
		}
		bi.inPending = false
		b.dead++
		out = append(out, bi)
		bound++
	}
	b.heads[int(n)] = i
	if bound > 0 {
		b.pendGen++
	}
	return out
}

// Remove discards a pending block. The list entry is tombstoned (O(1))
// and reclaimed at the next full pass.
func (b *PolicyBinder) Remove(bi *blockInfo) {
	if !bi.inPending {
		return
	}
	bi.inPending = false
	b.dead++
	b.pendGen++
}

// PendingCount implements Binder.
func (b *PolicyBinder) PendingCount() int { return len(b.pending) - b.dead }

// Reset implements Binder (master restart).
func (b *PolicyBinder) Reset() {
	for _, bi := range b.pending {
		bi.inPending, bi.listed = false, false
	}
	b.pending = nil
	b.dead = 0
	b.emptyBuckets()
	b.pendGen++
}

// UpdateTargets is one full targeting pass: reclaim tombstones, apply
// the cross-job ordering policy, then run the policy's Begin/Assign
// pass over the pending list, rebuilding the per-node pull buckets.
// With policy.DYRS this is exactly the paper's Algorithm 1: each node's
// finish time initialized to migTime[node] × (numQueued[node]+1) from
// the latest heartbeat state, each block targeting "the node where
// assigning the block would result in the lowest new completion time".
func (b *PolicyBinder) UpdateTargets() {
	if len(b.pending) == b.dead {
		// Nothing live. Drop any remaining tombstones so an idle binder
		// holds no stale references.
		if len(b.pending) > 0 {
			for _, bi := range b.pending {
				bi.listed = false
			}
			b.pending = b.pending[:0]
			b.dead = 0
		}
		return
	}
	if b.primed &&
		b.lastPendGen == b.pendGen &&
		b.lastEstEpoch == b.c.estEpoch &&
		b.lastHintEpoch == b.c.hintEpoch &&
		b.lastMembers == b.c.cl.MembershipEpoch() &&
		b.skipped < maxSkippedPasses {
		b.skipped++
		b.SkippedUpdates++
		return
	}
	b.primed = true
	b.skipped = 0
	b.lastPendGen = b.pendGen
	b.lastEstEpoch = b.c.estEpoch
	b.lastHintEpoch = b.c.hintEpoch
	b.lastMembers = b.c.cl.MembershipEpoch()
	b.Updates++
	// Reclaim tombstones so the ordering and targeting passes below see
	// only live entries (and so handed-out blocks are not re-targeted).
	if b.dead > 0 {
		kept := b.pending[:0]
		for _, bi := range b.pending {
			if bi.inPending {
				kept = append(kept, bi)
			} else {
				bi.listed = false
			}
		}
		for i := len(kept); i < len(b.pending); i++ {
			b.pending[i] = nil
		}
		b.pending = kept
		b.dead = 0
	}
	// Apply the configured cross-job ordering policy before the greedy
	// pass; with FIFO this is a no-op (§III, future-work extension).
	b.c.orderPending(b.pending)
	b.beginPass()
	b.emptyBuckets()
	for _, bi := range b.pending {
		b.repBuf = b.c.fs.LiveReplicas(bi.id, b.repBuf[:0])
		best, ok := b.pol.Assign(policy.Request{Block: bi.id, Size: bi.size, Replicas: b.repBuf})
		if !ok {
			bi.hasTarget = false
			continue
		}
		if tr := b.c.tr; tr.Enabled() && (!bi.hasTarget || bi.target != best) {
			// Record the ordering decision only when it changes, so the
			// trace shows retargeting without one instant per pass.
			tr.Instant("migration", "target", int(best),
				trace.Int("block", int64(bi.id)))
		}
		bi.target = best
		bi.hasTarget = true
		if len(b.targets[int(best)]) == 0 {
			b.filled = append(b.filled, best)
			b.c.onTargeted(best)
		}
		b.targets[int(best)] = append(b.targets[int(best)], bi)
	}
}

// emptyBuckets empties the pull buckets a pass filled.
func (b *PolicyBinder) emptyBuckets() {
	for _, n := range b.filled {
		b.targets[int(n)] = b.targets[int(n)][:0]
		b.heads[int(n)] = 0
	}
	b.filled = b.filled[:0]
}

// pullsAny implements Binder: a pull binds only blocks targeted at the
// puller, and UpdateTargets wakes each target.
func (b *PolicyBinder) pullsAny() bool { return false }

// pullable implements Binder: OnPull binds from n's bucket until it has
// consumed it, tombstones included.
func (b *PolicyBinder) pullable(n cluster.NodeID) bool {
	return len(b.pending) != b.dead && b.heads[int(n)] < len(b.targets[int(n)])
}

// stopBinder implements Binder: it stops the update ticker.
func (b *PolicyBinder) stopBinder() {
	if b.ticker != nil {
		b.ticker.Stop()
	}
}

// NaiveBinder is the Fig. 10 comparator: delayed binding like DYRS, but
// when a slave pulls, it simply receives the oldest pending blocks that
// have a replica on it — no earliest-finish reasoning, so the last few
// migrations can land on a slow node and become stragglers.
type NaiveBinder struct {
	c       *Coordinator
	pending []*blockInfo
}

// NewNaiveBinder returns the naive load-balancing policy.
func NewNaiveBinder() *NaiveBinder { return &NaiveBinder{} }

// Name implements Binder.
func (b *NaiveBinder) Name() string { return "Naive" }

func (b *NaiveBinder) attach(c *Coordinator) { b.c = c }

// stopBinder implements Binder: the naive binder runs no background
// work.
func (b *NaiveBinder) stopBinder() {}

// OnMigrate appends to the pending list.
func (b *NaiveBinder) OnMigrate(blocks []*blockInfo) {
	b.pending = append(b.pending, blocks...)
}

// OnPull hands over the oldest pending blocks with a replica on n.
func (b *NaiveBinder) OnPull(n cluster.NodeID, space int, out []*blockInfo) []*blockInfo {
	if space <= 0 || len(b.pending) == 0 {
		return out
	}
	bound := 0
	rest := b.pending[:0]
	for _, bi := range b.pending {
		if bound < space && hasReplicaOn(b.c, bi, n) {
			out = append(out, bi)
			bound++
			continue
		}
		rest = append(rest, bi)
	}
	b.pending = rest
	return out
}

func hasReplicaOn(c *Coordinator, bi *blockInfo, n cluster.NodeID) bool {
	for _, loc := range c.fs.Replicas(bi.id) {
		if loc == n {
			return true
		}
	}
	return false
}

// Remove discards a pending block.
func (b *NaiveBinder) Remove(bi *blockInfo) {
	for i, p := range b.pending {
		if p == bi {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return
		}
	}
}

// PendingCount implements Binder.
func (b *NaiveBinder) PendingCount() int { return len(b.pending) }

// pullsAny implements Binder: any slave holding a replica of a pending
// block may bind it, so while blocks are pending every slave pulls.
func (b *NaiveBinder) pullsAny() bool { return len(b.pending) > 0 }

// pullable implements Binder: while blocks are pending any slave may
// take one.
func (b *NaiveBinder) pullable(cluster.NodeID) bool { return b.pullsAny() }

// Reset implements Binder.
func (b *NaiveBinder) Reset() { b.pending = nil }
