package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// pinnedModel schedules a self-similar cascade of events on a single
// engine, logging (time, tag) so two executions can be compared
// byte-for-byte. It exercises Schedule, At, Cancel, the RNG stream and
// Stop — everything a real pinned model uses.
func pinnedModel(eng *Engine, log *[]string) {
	var tick func(depth int)
	tick = func(depth int) {
		*log = append(*log, fmt.Sprintf("%d@%v r%d", depth, eng.Now(), eng.Rand().Intn(1000)))
		if depth >= 6 {
			return
		}
		n := 1 + eng.Rand().Intn(3)
		for i := 0; i < n; i++ {
			d := Duration(1+eng.Rand().Intn(5000)) * time.Millisecond
			eng.Schedule(d, func() { tick(depth + 1) })
		}
		// Schedule-then-cancel keeps the tombstone machinery honest.
		ev := eng.Schedule(time.Second, func() { *log = append(*log, "cancelled-ran!") })
		eng.Cancel(ev)
	}
	eng.Schedule(0, func() { tick(0) })
}

// TestShardedSoloMatchesSequential proves the solo fast path: a model
// pinned to shard 0 of a multi-shard engine must produce the identical
// event log, clock, RNG stream and event count as a standalone Engine.
func TestShardedSoloMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		ref := NewEngine(99)
		var refLog []string
		pinnedModel(ref, &refLog)
		ref.Run()

		se := NewShardedEngine(99, shards, time.Millisecond)
		var log []string
		pinnedModel(se.Shard(0), &log)
		se.Run()

		if !reflect.DeepEqual(refLog, log) {
			t.Fatalf("shards=%d: event log diverged from sequential\nref: %v\ngot: %v", shards, refLog, log)
		}
		if se.Shard(0).Now() != ref.Now() {
			t.Fatalf("shards=%d: clock %v != sequential %v", shards, se.Shard(0).Now(), ref.Now())
		}
		if se.Shard(0).EventsFired() != ref.EventsFired() {
			t.Fatalf("shards=%d: fired %d != sequential %d", shards, se.Shard(0).EventsFired(), ref.EventsFired())
		}
	}
}

// TestShardedRunUntilMatchesSequential checks bounded runs, including
// the final clock advance to the target.
func TestShardedRunUntilMatchesSequential(t *testing.T) {
	ref := NewEngine(7)
	var refLog []string
	pinnedModel(ref, &refLog)
	ref.RunUntil(Time(3 * time.Second))

	se := NewShardedEngine(7, 4, time.Millisecond)
	var log []string
	pinnedModel(se.Shard(0), &log)
	se.RunUntil(Time(3 * time.Second))

	if !reflect.DeepEqual(refLog, log) {
		t.Fatalf("bounded event log diverged\nref: %v\ngot: %v", refLog, log)
	}
	if got, want := se.Shard(0).Now(), ref.Now(); got != want {
		t.Fatalf("clock after RunUntil: %v != %v", got, want)
	}
	for i := 0; i < len(se.shards); i++ {
		if se.Shard(i).Now() != Time(3*time.Second) {
			t.Fatalf("shard %d clock %v not advanced to target", i, se.Shard(i).Now())
		}
	}
}

// pholdModel is a PHOLD-style workload over every shard: each shard
// runs a population of jobs that do local work and occasionally hop to
// a neighbor shard via Send. Each shard logs only its own executions
// (shard-owned state), so the model is race-free by construction.
type pholdModel struct {
	se   *ShardedEngine
	logs [][]string
}

func newPholdModel(se *ShardedEngine, jobsPerShard int) *pholdModel {
	m := &pholdModel{se: se, logs: make([][]string, len(se.shards))}
	for i := 0; i < len(se.shards); i++ {
		sh := se.Shard(i)
		for j := 0; j < jobsPerShard; j++ {
			id := fmt.Sprintf("j%d.%d", i, j)
			sh.Schedule(Duration(j+1)*time.Millisecond, func() { m.hop(sh.shard, id, 0) })
		}
	}
	return m
}

func (m *pholdModel) hop(shard int, id string, depth int) {
	sh := m.se.Shard(shard)
	m.logs[shard] = append(m.logs[shard], fmt.Sprintf("%s d%d@%v r%d", id, depth, sh.Now(), sh.Rand().Intn(1000)))
	if depth >= 12 {
		return
	}
	if sh.Rand().Intn(3) == 0 {
		// Cross-shard hop: land on a neighbor no earlier than lookahead.
		dst := (shard + 1 + sh.Rand().Intn(len(m.se.shards)-1)) % len(m.se.shards)
		d := m.se.lookahead + Duration(sh.Rand().Intn(2000))*time.Microsecond
		sh.Send(dst, d, func() { m.hop(dst, id, depth+1) })
		return
	}
	sh.Schedule(Duration(1+sh.Rand().Intn(700))*time.Microsecond, func() { m.hop(shard, id, depth+1) })
}

func (m *pholdModel) flat() []string {
	var all []string
	for _, l := range m.logs {
		all = append(all, l...)
	}
	return all
}

// TestShardedWorkerInvariance is the core determinism guarantee: the
// same multi-shard model run at worker counts {1, 2, 4, 8} must yield
// identical per-shard logs, digests, clocks and event counts. Workers=1
// is the sequential reference order; run under -race this also proves
// the parallel rounds are properly synchronized.
func TestShardedWorkerInvariance(t *testing.T) {
	type result struct {
		logs   [][]string
		digest uint64
		fired  uint64
		clocks []Time
	}
	run := func(workers int) result {
		se := NewShardedEngine(1234, 4, 500*time.Microsecond)
		se.SetWorkers(workers)
		m := newPholdModel(se, 8)
		se.Run()
		var clocks []Time
		for i := 0; i < len(se.shards); i++ {
			clocks = append(clocks, se.Shard(i).Now())
		}
		return result{logs: m.logs, digest: se.Digest(), fired: se.EventsFired(), clocks: clocks}
	}
	ref := run(1)
	if ref.fired == 0 {
		t.Fatal("model fired no events")
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if got.digest != ref.digest {
			t.Errorf("workers=%d: digest %x != reference %x", workers, got.digest, ref.digest)
		}
		if got.fired != ref.fired {
			t.Errorf("workers=%d: fired %d != reference %d", workers, got.fired, ref.fired)
		}
		if !reflect.DeepEqual(got.logs, ref.logs) {
			t.Errorf("workers=%d: per-shard logs diverged from workers=1", workers)
		}
		if !reflect.DeepEqual(got.clocks, ref.clocks) {
			t.Errorf("workers=%d: clocks %v != reference %v", workers, got.clocks, ref.clocks)
		}
	}
}

// TestShardedRunUntilWorkerInvariance runs the PHOLD model in bounded
// slices (exercising window clamping and the clock advance) and
// demands the same invariance.
func TestShardedRunUntilWorkerInvariance(t *testing.T) {
	run := func(workers int) ([][]string, uint64) {
		se := NewShardedEngine(4321, 4, 500*time.Microsecond)
		se.SetWorkers(workers)
		m := newPholdModel(se, 6)
		for i := 1; i <= 5; i++ {
			se.RunUntil(Time(i) * Time(20*time.Millisecond))
		}
		se.Run()
		return m.logs, se.Digest()
	}
	refLogs, refDigest := run(1)
	for _, workers := range []int{2, 4} {
		logs, digest := run(workers)
		if digest != refDigest {
			t.Errorf("workers=%d: digest %x != reference %x", workers, digest, refDigest)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: logs diverged", workers)
		}
	}
}

// TestShardedMergeOrder pins the deterministic merge rule directly:
// messages from several sources arriving at the same destination
// instant must run in (source shard, send index) order, after any
// same-instant event the destination scheduled itself in an earlier
// window.
func TestShardedMergeOrder(t *testing.T) {
	const look = Duration(time.Millisecond)
	se := NewShardedEngine(1, 4, look)
	var order []string
	arrival := Time(0).Add(look) // all sends below land exactly here

	// Destination shard 0 schedules its own event at the arrival instant
	// first — it must keep winning the (time, seq) tie against delivered
	// messages because its seq predates every delivery.
	se.Shard(0).At(arrival, func() { order = append(order, "local") })
	// Sources 2, 3, 1 each stage two messages at time 0; delivery must
	// be by source index then send order, not by the order staged here.
	for _, src := range []int{2, 3, 1} {
		sh := se.Shard(src)
		for k := 0; k < 2; k++ {
			src, k := src, k
			sh.Schedule(0, func() {
				sh.Send(0, look, func() { order = append(order, fmt.Sprintf("s%d.%d", src, k)) })
			})
		}
	}
	se.Run()
	want := []string{"local", "s1.0", "s1.1", "s2.0", "s2.1", "s3.0", "s3.1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order = %v, want %v", order, want)
	}
}

// TestShardedSameShardSendIsLocal checks Send to the engine's own shard
// has no lookahead floor and standalone engines accept Send(0, ...).
func TestShardedSameShardSendIsLocal(t *testing.T) {
	se := NewShardedEngine(5, 2, time.Second)
	ran := false
	se.Shard(1).Send(1, time.Microsecond, func() { ran = true }) // below lookahead: fine, local
	se.Run()
	if !ran {
		t.Fatal("same-shard Send did not run")
	}

	eng := NewEngine(5)
	ran = false
	eng.Send(0, time.Microsecond, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("standalone Send(0) did not run")
	}
}

func TestShardedSendPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	se := NewShardedEngine(5, 2, time.Second)
	mustPanic("below-lookahead cross-shard send", func() {
		se.Shard(0).Send(1, time.Millisecond, func() {})
	})
	mustPanic("send to out-of-range shard", func() {
		se.Shard(0).Send(7, time.Second, func() {})
	})
	eng := NewEngine(5)
	mustPanic("standalone send to nonzero shard", func() {
		eng.Send(1, time.Second, func() {})
	})
	mustPanic("zero lookahead", func() { NewShardedEngine(5, 2, 0) })
	mustPanic("zero shards", func() { NewShardedEngine(5, 0, time.Second) })
}

// TestShardedStop checks Stop semantics: a stop requested mid-run
// halts every shard and leaves clocks un-advanced past the stop point.
func TestShardedStop(t *testing.T) {
	se := NewShardedEngine(2, 2, time.Millisecond)
	fired := 0
	se.Shard(0).Schedule(time.Second, func() { fired++; se.Stop() })
	se.Shard(0).Schedule(2*time.Second, func() { fired++ })
	se.Shard(1).Schedule(3*time.Second, func() { fired++ })
	se.RunUntil(Time(10 * time.Second))
	if fired != 1 {
		t.Fatalf("fired %d events after Stop, want 1", fired)
	}
	if se.Shard(0).Now() >= Time(2*time.Second) {
		t.Fatalf("clock advanced past stop point: %v", se.Shard(0).Now())
	}
	// A later Run resumes and drains the remaining events.
	se.Run()
	if fired != 3 {
		t.Fatalf("resume fired %d total, want 3", fired)
	}
}

// TestShardedStopWindowWorkerInvariant: a Stop raised mid-window — via
// the coordinator or through a shard's own Engine.Stop — lets every
// shard finish the window and returns at its barrier, so the same
// events fire at any worker count.
func TestShardedStopWindowWorkerInvariant(t *testing.T) {
	for _, viaShard := range []bool{false, true} {
		var want []uint64
		for _, workers := range []int{1, 2, 4} {
			se := NewShardedEngine(3, 4, 10*time.Millisecond)
			se.SetWorkers(workers)
			for i := 0; i < len(se.shards); i++ {
				sh := se.Shard(i)
				for k := 0; k < 6; k++ {
					fn := func() {}
					if i == 2 && k == 1 {
						fn = se.Stop
						if viaShard {
							fn = sh.Stop
						}
					}
					sh.At(Time(time.Second)+Time(k)*Time(time.Millisecond), fn)
				}
				sh.At(Time(2*time.Second), func() {})
			}
			se.Run()
			fired := make([]uint64, len(se.shards))
			for i := range fired {
				fired[i] = se.Shard(i).EventsFired()
			}
			if want == nil {
				want = fired
				for i, n := range fired {
					if n != 6 {
						t.Fatalf("viaShard=%v: shard %d fired %d events before the barrier, want the window's 6", viaShard, i, n)
					}
				}
			} else if !reflect.DeepEqual(fired, want) {
				t.Fatalf("viaShard=%v workers=%d: fired %v, one worker fired %v", viaShard, workers, fired, want)
			}
			se.Run()
			if got := se.EventsFired(); got != 28 {
				t.Fatalf("viaShard=%v workers=%d: resumed run fired %d in total, want 28", viaShard, workers, got)
			}
		}
	}
}

// TestShardedStopOneShard: on a one-shard coordinator, whose shard has
// no parent to forward to, the shard's own Stop still ends the run.
func TestShardedStopOneShard(t *testing.T) {
	se := NewShardedEngine(4, 1, time.Millisecond)
	sh := se.Shard(0)
	sh.At(Time(time.Second), sh.Stop)
	sh.At(Time(2*time.Second), func() {})
	se.Run()
	if n := se.EventsFired(); n != 1 {
		t.Fatalf("fired %d events before the stop took effect, want 1", n)
	}
	se.Run()
	if n := se.EventsFired(); n != 2 {
		t.Fatalf("resumed run fired %d in total, want 2", n)
	}
}

// TestShardedShardsOneIsPlainEngine: a single-shard coordinator must
// not attach parallel machinery at all.
func TestShardedShardsOneIsPlainEngine(t *testing.T) {
	se := NewShardedEngine(3, 1, time.Millisecond)
	if se.Shard(0).parent != nil {
		t.Fatal("shards=1 engine should have no parent coordinator")
	}
	ran := false
	se.Shard(0).Schedule(time.Second, func() { ran = true })
	se.Shard(0).Run() // runs directly, no delegation
	if !ran {
		t.Fatal("shards=1 engine did not run")
	}
}

// TestShardedSeedDecorrelation: shard 0 keeps the root seed (so pinned
// models match NewEngine exactly); other shards draw distinct streams.
func TestShardedSeedDecorrelation(t *testing.T) {
	se := NewShardedEngine(42, 3, time.Millisecond)
	ref := NewEngine(42)
	if got, want := se.Shard(0).Rand().Int63(), ref.Rand().Int63(); got != want {
		t.Fatalf("shard 0 RNG stream %d != NewEngine stream %d", got, want)
	}
	a, b := se.Shard(1).Rand().Int63(), se.Shard(2).Rand().Int63()
	if a == b {
		t.Fatalf("shards 1 and 2 drew identical first values %d — streams correlated", a)
	}
}

// TestShardedResourceFlows runs Resources (the fluid-flow model) on
// multiple shards concurrently and checks worker invariance of the
// completion order — the model every real partition is built from.
func TestShardedResourceFlows(t *testing.T) {
	run := func(workers int) ([][]string, uint64) {
		se := NewShardedEngine(77, 3, time.Millisecond)
		se.SetWorkers(workers)
		logs := make([][]string, 3)
		for i := 0; i < 3; i++ {
			i := i
			sh := se.Shard(i)
			disk := NewResource(sh, fmt.Sprintf("disk%d", i), 130e6, FlatEfficiency)
			for j := 0; j < 20; j++ {
				j := j
				sh.Schedule(Duration(j)*37*time.Millisecond, func() {
					size := Bytes(1+sh.Rand().Intn(64)) * MB
					disk.Start(size, func(f *Flow) {
						logs[i] = append(logs[i], fmt.Sprintf("f%d.%d@%v", i, j, sh.Now()))
						if j%5 == 0 {
							dst := (i + 1) % 3
							sh.Send(dst, time.Millisecond, func() {
								logs[dst] = append(logs[dst], fmt.Sprintf("ping%d.%d@%v", i, j, se.Shard(dst).Now()))
							})
						}
					})
				})
			}
		}
		se.Run()
		return logs, se.Digest()
	}
	refLogs, refDigest := run(1)
	if len(refLogs[0]) == 0 {
		t.Fatal("no flows completed")
	}
	for _, workers := range []int{2, 3} {
		logs, digest := run(workers)
		if digest != refDigest {
			t.Errorf("workers=%d: digest mismatch", workers)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("workers=%d: flow logs diverged", workers)
		}
	}
}
