package migration

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
)

// loggedBinder is a PolicyBinder that records which slaves pulled, in
// order. It keeps the binder's wakes, so the coordinator visits only
// the awake slaves.
type loggedBinder struct {
	*PolicyBinder
	pulls []cluster.NodeID
}

func (b *loggedBinder) OnPull(n cluster.NodeID, space int, out []*blockInfo) []*blockInfo {
	b.pulls = append(b.pulls, n)
	return b.PolicyBinder.OnPull(n, space, out)
}

func (b *loggedBinder) take() (p []cluster.NodeID) { p, b.pulls = b.pulls, nil; return p }

// visitAllBinder is a PolicyBinder that reports any slave's pull may
// bind work, so every round and RPC visits every slave: the behaviour
// the awake set must reproduce.
type visitAllBinder struct{ *PolicyBinder }

func (visitAllBinder) pullsAny() bool { return true }

// awakeSlaves lists the slaves whose awake bit is set.
func awakeSlaves(c *Coordinator) []cluster.NodeID {
	out := []cluster.NodeID{}
	for i := range c.slaves {
		if c.awakeAt(i) {
			out = append(out, cluster.NodeID(i))
		}
	}
	return out
}

func nodeRange(lo, hi int) []cluster.NodeID {
	out := []cluster.NodeID{}
	for i := lo; i < hi; i++ {
		out = append(out, cluster.NodeID(i))
	}
	return out
}

// TestHeartbeatVisitsOnlyBusySlaves: under the DYRS binder a heartbeat
// round pulls only the slaves with work or a stale report, in node
// order, while the engine still counts every slave's tick and keeps all
// of them pending. Every slave starts awake and falls asleep after its
// first report. A migration requested between rounds wakes its target,
// which the RPC and the next round visit; it stays awake while its
// transfer runs and for the round that reports the new estimate. A
// membership change has one round visit every slave, and a dead slave
// stays awake until it revives. Under the skip oracle every slave pulls,
// so there the rounds are checked against the awake set alone.
func TestHeartbeatVisitsOnlyBusySlaves(t *testing.T) {
	const nodes = 6
	b := &loggedBinder{PolicyBinder: NewDYRSBinder()}
	cfg := DefaultConfig()
	cfg.TargetUpdateInterval = time.Hour // Migrate's own pass targets the block
	r := newRig(t, 1, nodes, b, nil, cfg)
	hb := r.c.cfg.Heartbeat
	pulled := func(want []cluster.NodeID) {
		t.Helper()
		got := b.take()
		if wakeCheck {
			return
		}
		if len(got) == 0 {
			got = []cluster.NodeID{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("at %v: slaves pulled %v, want %v", r.eng.Now(), got, want)
		}
	}
	awakeIs := func(want []cluster.NodeID) {
		t.Helper()
		if got := awakeSlaves(r.c); !reflect.DeepEqual(got, want) {
			t.Errorf("at %v: awake %v, want %v", r.eng.Now(), got, want)
		}
	}
	round := func(want []cluster.NodeID) {
		t.Helper()
		at := sim.Time(r.eng.Now()/sim.Time(hb)+1) * sim.Time(hb)
		r.eng.RunUntil(at - 1)
		fired := r.eng.EventsFired()
		r.eng.RunUntil(at)
		pulled(want)
		if got := r.eng.EventsFired() - fired; got != nodes {
			t.Errorf("at %v: round fired %d events, want %d", r.eng.Now(), got, nodes)
		}
		// The heartbeats and the binder's update ticker, plus a
		// transfer's events while one runs.
		if got := r.eng.Pending(); got < nodes+1 || got > nodes+1 && r.c.QueuedBlocks() == 0 {
			t.Errorf("at %v: pending %d events, want the %d heartbeats and the update ticker", r.eng.Now(), got, nodes)
		}
	}
	none := []cluster.NodeID{}
	if got := r.eng.Pending(); got != nodes+1 {
		t.Fatalf("pending %d events at start, want %d heartbeats and the update ticker", got, nodes)
	}
	round(nodeRange(0, nodes))
	awakeIs(none)
	round(none)

	// One block, requested half-way to the next round.
	r.mkFile(t, "in", 1)
	r.eng.RunFor(hb / 2)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	x := r.c.blockRecord(0).target
	busy := []cluster.NodeID{x}
	awakeIs(busy)
	r.eng.RunFor(cluster.RPCLatency)
	pulled(busy)
	if r.c.slaves[int(x)].nActive != 1 {
		t.Fatalf("slave %v started no transfer", x)
	}
	// The target stays awake while its transfer runs, and through the
	// round that reports the estimate the transfer changed.
	for r.c.Stats().Migrated == 0 {
		round(busy)
		if r.c.Stats().Migrated == 0 {
			awakeIs(busy)
		}
		if r.eng.Now() > sim.Time(time.Minute) {
			t.Fatal("migration did not finish")
		}
	}
	awakeIs(none)
	round(none)

	r.cl.KillNode(2)
	round(append(nodeRange(0, 2), nodeRange(3, nodes)...))
	awakeIs([]cluster.NodeID{2})
	round(none)
	awakeIs([]cluster.NodeID{2})
	r.cl.ReviveNode(2)
	round(nodeRange(0, nodes))
	awakeIs(none)
	round(none)

	r.c.Shutdown()
	if got := r.eng.Pending(); got != 0 {
		t.Errorf("pending %d events after Shutdown, want 0", got)
	}
}

// backfillRun drives one seeded scenario on 5 nodes with estimate
// series recorded: a migration, then slaves asleep for several rounds,
// then wake(r), then more rounds. It returns every slave's series
// points after the wake and at the end, and the stats. visitAll runs
// the same scenario with every slave visited every round.
func backfillRun(t *testing.T, pol func() policy.Policy, visitAll bool, wake func(*testRig) string) []string {
	t.Helper()
	var binder Binder = NewPolicyBinder(pol())
	if visitAll {
		binder = visitAllBinder{binder.(*PolicyBinder)}
	}
	r := newRig(t, 3, 5, binder, nil, DefaultConfig())
	r.mkFile(t, "a", 6)
	if err := r.c.Migrate(1, []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(40 * time.Second))
	if !visitAll && len(awakeSlaves(r.c)) != 0 {
		t.Fatalf("slaves %v still awake at %v", awakeSlaves(r.c), r.eng.Now())
	}
	r.eng.RunFor(7500 * time.Millisecond) // asleep for 7 rounds, woken between rounds
	var out []string
	out = append(out, wake(r))
	r.eng.RunFor(20 * time.Second)
	r.c.Shutdown()
	for n := 0; n < 5; n++ {
		out = append(out, fmt.Sprint(r.c.EstimateSeries(cluster.NodeID(n)).Points()))
	}
	return append(out, fmt.Sprintf("%+v", r.c.Stats()))
}

// TestEstimateSeriesBackfill: a slave that sleeps through rounds, each
// of which records its estimate without ticking it, and is then woken
// (by an enqueue between rounds or on a round's instant, just after or
// just before the round's event, by RestartSlaveProcess, by Shutdown,
// by a mid-run EstimateSeries read, by its node dying and reviving, or
// by buffered memory crossing the scavenge threshold) leaves the same
// estimate series and stats as a run that visits every slave every
// round. The slave restarted has migrated, so its estimate is no longer
// the seeded one the reset restores.
func TestEstimateSeriesBackfill(t *testing.T) {
	dyrs := func() policy.Policy { return policy.NewDYRS() }
	ignem := func() policy.Policy { return policy.NewIgnem() }
	series := func(r *testRig) string {
		var s string
		for n := 0; n < 5; n++ {
			s += fmt.Sprint(r.c.EstimateSeries(cluster.NodeID(n)).Points())
		}
		return s
	}
	// migrateAt returns a wake that enqueues from an event at the given
	// round instant. The wake runs at 47.5 s: the round at 48 s was
	// scheduled before it and fires first, the round at 49 s after it.
	migrateAt := func(at time.Duration) func(*testRig) string {
		return func(r *testRig) string {
			r.mkFile(t, "b", 4)
			r.eng.At(sim.Time(at), func() {
				if err := r.c.Migrate(2, []string{"b"}, false); err != nil {
					t.Error(err)
				}
			})
			return ""
		}
	}
	cases := []struct {
		name string
		pol  func() policy.Policy
		wake func(*testRig) string
	}{
		{"enqueue", ignem, func(r *testRig) string {
			r.mkFile(t, "b", 4)
			if err := r.c.Migrate(2, []string{"b"}, false); err != nil {
				t.Fatal(err)
			}
			return ""
		}},
		{"enqueue-after-round", ignem, migrateAt(48 * time.Second)},
		{"enqueue-before-round", ignem, migrateAt(49 * time.Second)},
		{"restart", dyrs, func(r *testRig) string {
			for n := 0; n < 5; n++ {
				if s := r.c.slaves[n]; s.Migrations > 0 {
					r.c.RestartSlaveProcess(cluster.NodeID(n))
					return fmt.Sprint(n)
				}
			}
			t.Fatal("no slave migrated")
			return ""
		}},
		{"shutdown", dyrs, func(r *testRig) string {
			r.c.Shutdown()
			return series(r)
		}},
		{"read", dyrs, series},
		{"kill-revive", dyrs, func(r *testRig) string {
			r.cl.KillNode(1)
			r.eng.RunFor(3 * time.Second)
			r.cl.ReviveNode(1)
			return series(r)
		}},
		{"pinned-memory", dyrs, func(r *testRig) string {
			// 210 blocks of 256 MB are over 80% of node 1's 64 GB buffer.
			for _, id := range r.mkFile(t, "pin", 210).Blocks {
				r.fs.RegisterMem(id, 1)
			}
			return fmt.Sprint(r.fs.DataNode(1).MemUsed())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := backfillRun(t, tc.pol, false, tc.wake)
			want := backfillRun(t, tc.pol, true, tc.wake)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("entry %d:\nawake set  %s\nvisit all  %s", i, got[i], want[i])
				}
			}
		})
	}
}

// misplaced targets every block at the lowest node holding no replica
// of it, so each transfer a slave starts fails and is dropped.
type misplaced struct{}

func (misplaced) Name() string          { return "misplaced" }
func (misplaced) BindImmediately() bool { return false }
func (misplaced) Begin(policy.View)     {}
func (misplaced) Assign(req policy.Request) (cluster.NodeID, bool) {
	for n := cluster.NodeID(0); ; n++ {
		if !slices.Contains(req.Replicas, n) {
			return n, true
		}
	}
}

// TestSlaveThatBoundWorkStaysAwake: a slave whose pull bound blocks it
// then dropped, because it holds no replica of them, ends its tick idle
// but must not sleep: more blocks are targeted at it, and the next
// round's pull takes them. Round by round it drops as many blocks as a
// run that visits every slave.
func TestSlaveThatBoundWorkStaysAwake(t *testing.T) {
	run := func(visitAll bool) []int {
		var binder Binder = NewPolicyBinder(misplaced{})
		if visitAll {
			binder = visitAllBinder{binder.(*PolicyBinder)}
		}
		cfg := DefaultConfig()
		cfg.TargetUpdateInterval = time.Hour // no pass re-wakes the target
		r := newRig(t, 1, 5, binder, nil, cfg)
		r.mkFile(t, "in", 24)
		if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
			t.Fatal(err)
		}
		var dropped []int
		for i := 0; i < 12; i++ {
			r.eng.RunFor(r.c.cfg.Heartbeat)
			dropped = append(dropped, r.c.Stats().Dropped)
		}
		return dropped
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dropped after each round: awake set %v, visit all %v", got, want)
	}
	if want[0] == want[len(want)-1] {
		t.Errorf("drops %v do not grow round by round", want)
	}
}

// readySlaves lists the slaves whose ready bit is set.
func readySlaves(c *Coordinator) []cluster.NodeID {
	out := []cluster.NodeID{}
	for i := range c.slaves {
		if bitAt(c.ready, i) {
			out = append(out, cluster.NodeID(i))
		}
	}
	return out
}

// TestReadySetFollowsQueueSpace: on one node, a file of two blocks more
// than the slave's queue depth is targeted at it. Migrate's RPC binds a
// queue's worth and starts one transfer; the slave, with its queue
// full, its slot busy and two blocks still in its pull bucket, leaves
// the ready set. A missed read then drops a queued block: the freed
// queue space puts the slave back in the set, and the next RPC binds
// one more block from the bucket. A transfer slot freed by an aborted
// transfer does the same.
func TestReadySetFollowsQueueSpace(t *testing.T) {
	b := &loggedBinder{PolicyBinder: NewDYRSBinder()}
	cfg := DefaultConfig()
	cfg.TargetUpdateInterval = time.Hour // Migrate's own pass targets the blocks
	r := newRig(t, 1, 1, b, nil, cfg)
	r.eng.RunFor(3 * time.Second)
	s := r.c.slaves[0]
	r.mkFile(t, "in", s.depth+2)
	readyIs := func(want []cluster.NodeID) {
		t.Helper()
		if got := readySlaves(r.c); !reflect.DeepEqual(got, want) {
			t.Errorf("at %v: ready %v, want %v", r.eng.Now(), got, want)
		}
	}
	if err := r.c.Migrate(1, []string{"in"}, true); err != nil {
		t.Fatal(err)
	}
	readyIs([]cluster.NodeID{0})
	r.eng.RunFor(cluster.RPCLatency)
	if len(s.queue) != s.depth-1 || s.nActive != 1 {
		t.Fatalf("after the RPC: %d queued, %d active, want %d and 1", len(s.queue), s.nActive, s.depth-1)
	}
	readyIs([]cluster.NodeID{})

	queued := s.queue[len(s.queue)-1].id
	r.c.NoteRead(1, queued)
	readyIs([]cluster.NodeID{0})
	b.take()
	r.cl.RPC(r.c.rpcPull)
	r.eng.RunFor(cluster.RPCLatency)
	if got := b.take(); !reflect.DeepEqual(got, []cluster.NodeID{0}) {
		t.Errorf("the RPC after the missed read pulled on %v, want [0]", got)
	}
	if len(s.queue) != s.depth-1 {
		t.Errorf("after the second RPC: %d queued, want %d", len(s.queue), s.depth-1)
	}
	readyIs([]cluster.NodeID{})

	// A missed read on the transfer aborts it; the kick that follows
	// starts the next queued block and the queue space takes the last
	// block in the bucket at the next RPC.
	r.c.NoteRead(1, s.active[0].bi.id)
	readyIs([]cluster.NodeID{0})
	r.cl.RPC(r.c.rpcPull)
	r.eng.RunFor(cluster.RPCLatency)
	if len(s.queue) != s.depth-1 || s.nActive != 1 || b.heads[0] != len(b.targets[0]) {
		t.Errorf("after the third RPC: %d queued, %d active, bucket at %d of %d, want %d, 1 and drained",
			len(s.queue), s.nActive, b.heads[0], len(b.targets[0]), s.depth-1)
	}
	readyIs([]cluster.NodeID{})
	if r.eng.Now() >= sim.Time(4*time.Second) {
		t.Fatalf("the test ran into the next heartbeat at %v", r.eng.Now())
	}
}
