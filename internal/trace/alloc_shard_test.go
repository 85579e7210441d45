package trace

import (
	"testing"
	"time"

	"dyrs/internal/sim"
)

// The sharded engine's hot loop must stay allocation-free whether
// observability is absent (nil tracer) or present but idle (tracer with
// a configured sampler that keeps dropping records, plus registered
// histogram handles): at 10k nodes the coordinated-window loop runs
// hundreds of millions of events, and one object per event is the
// difference between a benchmark and a GC storm.

// testShards is the shard count of the engines these tests build.
const testShards = 4

// shardCycle schedules one local event per shard plus one cross-shard
// message and drains the engine — exercising census, the coordinated
// window (inline, workers=1), deliver, and the solo tail.
func shardCycle(se *sim.ShardedEngine, nop func()) {
	for s := 0; s < testShards; s++ {
		se.Shard(s).Schedule(time.Millisecond, nop)
	}
	se.Shard(0).Send(1, time.Second, nop)
	se.Run()
}

// soloCycle drives only shard 0, staying on the solo fast path.
func soloCycle(se *sim.ShardedEngine, nop func()) {
	se.Shard(0).Schedule(time.Millisecond, nop)
	se.Run()
}

func shardAllocs(t *testing.T, workers int, cycle func(*sim.ShardedEngine, func()), observe func(*sim.ShardedEngine)) float64 {
	t.Helper()
	se := sim.NewShardedEngine(1, testShards, time.Second)
	se.SetWorkers(workers)
	if observe != nil {
		observe(se)
	}
	nop := func() {}
	for i := 0; i < 64; i++ { // warm event pools and worker lanes
		cycle(se, nop)
	}
	return testing.AllocsPerRun(200, func() { cycle(se, nop) })
}

func TestShardedEngineNilTracerZeroAllocs(t *testing.T) {
	if avg := shardAllocs(t, 1, shardCycle, nil); avg != 0 {
		t.Errorf("untraced sharded hot loop allocates %.2f objects/op, want 0", avg)
	}
	if avg := shardAllocs(t, 1, soloCycle, nil); avg != 0 {
		t.Errorf("untraced solo fast path allocates %.2f objects/op, want 0", avg)
	}
}

// With tracers attached to every shard, samplers configured, and
// histogram handles registered — but no record actually made by the
// cycle — the engine loop itself must still allocate nothing: the
// observability layer only costs where call sites record.
func TestShardedEngineIdleTracerZeroAllocs(t *testing.T) {
	observe := func(se *sim.ShardedEngine) {
		for s := 0; s < testShards; s++ {
			tr := New(se.Shard(s))
			tr.SetSampling(64, 7)
			tr.Hist("read.latency_ns")
		}
	}
	if avg := shardAllocs(t, 1, shardCycle, observe); avg != 0 {
		t.Errorf("traced sharded hot loop allocates %.2f objects/op, want 0", avg)
	}
	if avg := shardAllocs(t, 1, soloCycle, observe); avg != 0 {
		t.Errorf("traced solo fast path allocates %.2f objects/op, want 0", avg)
	}
}

// Histogram observation from inside events is a fixed-array update —
// the steady-state streaming-metrics path must add zero allocations.
func TestShardedEngineHistObserveZeroAllocs(t *testing.T) {
	se := sim.NewShardedEngine(1, 2, time.Second)
	se.SetWorkers(1)
	h := New(se.Shard(0)).Hist("read.latency_ns")
	tick := func() { h.Observe(12345) }
	for i := 0; i < 64; i++ {
		se.Shard(0).Schedule(time.Millisecond, tick)
		se.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		se.Shard(0).Schedule(time.Millisecond, tick)
		se.Run()
	})
	if avg != 0 {
		t.Errorf("histogram observe in sharded loop allocates %.2f objects/op, want 0", avg)
	}
}
