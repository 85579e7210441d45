package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// The scaleshard experiment family is the parallel-in-virtual-time
// counterpart of the scale family: the same datacenter shape (nodes in
// racks, heterogeneous disks, a bandwidth-aware master picking
// migration targets), but built as a genuinely partitioned model on
// sim.ShardedEngine — master on the control shard, each rack homed on
// its own data shard, and every master<->rack interaction an explicit
// timestamped Send. It exists to (a) exercise and benchmark the
// multi-core engine on a realistic workload, and (b) pin the
// determinism contract: every counter and the execution digest must be
// byte-identical at any worker count.
//
// The model is deliberately self-contained (per-node sim.Resource
// disks rather than the full dfs/migration stack): partitioning the
// full coordinator is the next step on the roadmap, and this family is
// the harness that proves the engine underneath it is safe.
type ScaleShardOptions struct {
	// Scenario names the preset in reports ("scaleshard", "scaleshard1k").
	Scenario string
	// Nodes and Racks shape the cluster; each rack is one data shard, so
	// the engine runs 1+Racks logical shards.
	Nodes int
	Racks int
	// BlockSize is the unit of reads and migrations.
	BlockSize sim.Bytes
	// ReadEvery is the mean of the per-node closed-loop read
	// interarrival (exponential); the read load that keeps data shards
	// busy between control-plane events.
	ReadEvery sim.Duration
	// Jobs migration jobs arrive over the first 75% of the run; each
	// requests BlocksPerJob block migrations on master-chosen nodes.
	Jobs         int
	BlocksPerJob int
	// Heartbeat is the per-rack load-report interval; ControlLatency the
	// one-way master<->rack message latency (it is also the engine
	// lookahead — no cross-shard interaction is faster).
	Heartbeat      sim.Duration
	ControlLatency sim.Duration
	// Residency is how long a migrated block stays buffered before its
	// rack-local eviction timer fires.
	Residency sim.Duration
	// Virtual is the simulated time span.
	Virtual sim.Duration
	// Seed drives all randomness; identical seeds give identical rows.
	Seed int64
	// Workers caps the engine's execution lanes (0 = GOMAXPROCS). Rows
	// are byte-identical at any value — it is a wall-clock knob only.
	Workers int
}

// ScaleShardSmokeOptions is the CI-sized preset registered in the
// experiment registry: ~100k events, small enough for the determinism
// gate to run twice, partitioned enough (8 rack shards) to exercise
// the windowed executor rather than the solo fast path.
func ScaleShardSmokeOptions(seed int64) ScaleShardOptions {
	return ScaleShardOptions{
		Scenario:       "scaleshard",
		Nodes:          120,
		Racks:          8,
		BlockSize:      128 * sim.MB,
		ReadEvery:      5 * time.Second,
		Jobs:           40,
		BlocksPerJob:   16,
		Heartbeat:      10 * time.Second,
		ControlLatency: 2 * time.Second,
		Residency:      5 * time.Minute,
		Virtual:        30 * time.Minute,
		Seed:           seed,
	}
}

// ScaleShard1kOptions is the macro-benchmark preset: 1,000 nodes in 20
// rack shards for four hours of virtual time — several million events
// spread across 21 logical shards, the regime where multi-core
// execution pays.
func ScaleShard1kOptions(seed int64) ScaleShardOptions {
	return ScaleShardOptions{
		Scenario:       "scaleshard1k",
		Nodes:          1000,
		Racks:          20,
		BlockSize:      128 * sim.MB,
		ReadEvery:      5 * time.Second,
		Jobs:           200,
		BlocksPerJob:   64,
		Heartbeat:      10 * time.Second,
		ControlLatency: 2 * time.Second,
		Residency:      15 * time.Minute,
		Virtual:        4 * time.Hour,
		Seed:           seed,
	}
}

// ScaleShardRow is the deterministic outcome of one run: virtual-time
// counters and the engine execution digest only, so the row
// participates in the byte-identical determinism contract at any
// worker count. Wall-clock throughput is measured by the
// BenchmarkScale1kShards* macro-benchmarks, never recorded here.
type ScaleShardRow struct {
	Scenario     string  `json:"scenario"`
	Nodes        int     `json:"nodes"`
	Racks        int     `json:"racks"`
	Shards       int     `json:"shards"`
	VirtualHours float64 `json:"virtual_hours"`

	// EventsFired sums executed events across shards; Digest is the
	// engine's (time, seq) execution fingerprint — identical digests
	// mean identical executed schedules on every shard.
	EventsFired uint64 `json:"events_fired"`
	Digest      string `json:"digest"`

	Reads      uint64  `json:"reads"`
	ReadTB     float64 `json:"read_tb"`
	Heartbeats int     `json:"heartbeats"`

	Requested  int     `json:"requested"`
	Migrated   int     `json:"migrated"`
	Evicted    int     `json:"evicted"`
	MigratedTB float64 `json:"migrated_tb"`

	// Engine profiler outcomes (sim.ShardedEngine.Profile): how rounds
	// split between the solo fast path and coordinated windows, how many
	// shard-window participations stalled on lookahead, and the
	// cross-shard message volume. Pure virtual-time facts — identical at
	// any worker count, so they live in the deterministic row.
	Rounds          uint64 `json:"windows"`
	SoloRounds      uint64 `json:"solo_rounds"`
	LookaheadStalls uint64 `json:"lookahead_stalls"`
	CrossShardMsgs  uint64 `json:"cross_shard_msgs"`
}

// ScaleShardReport aggregates the rows of one or more presets.
type ScaleShardReport struct {
	Rows []ScaleShardRow
}

// String renders the family as a table.
func (r ScaleShardReport) String() string {
	t := NewTable("Sharded engine — partitioned datacenter model (worker-count invariant)",
		"scenario", "nodes", "shards", "virtual", "events", "digest",
		"reads", "heartbeats", "migrated", "evicted")
	for _, row := range r.Rows {
		t.AddRow(row.Scenario,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.1fh", row.VirtualHours),
			fmt.Sprintf("%d", row.EventsFired),
			row.Digest[:12],
			fmt.Sprintf("%d", row.Reads),
			fmt.Sprintf("%d", row.Heartbeats),
			fmt.Sprintf("%d", row.Migrated),
			fmt.Sprintf("%d", row.Evicted))
	}
	return t.String()
}

// shardNode is the per-node state homed on a rack shard: its disk, the
// outstanding-read gauge the heartbeat reports, and the count of
// migrated blocks currently buffered (each with a pending eviction
// timer).
type shardNode struct {
	id          int
	rk          *shardRack
	disk        *sim.Resource
	outstanding int
	resident    int
	// rng drives the node's read think times. Per-node (derived from the
	// run seed and the node id, never from a shard engine's stream) so
	// the node's event sequence is identical at any data-shard layout.
	rng *rand.Rand

	// The closed loop keeps at most one read outstanding per node: the
	// next read is scheduled only when the last one completes. So the
	// read in flight lives here, and its start and completion callbacks
	// are bound once, at set-up, making a read allocation-free.
	startRead func()
	readDone  func(*sim.Flow)
}

// shardRack is one data shard's state. Only events executing on its
// home shard ever touch it, which is what makes the model race-free
// under parallel windows.
type shardRack struct {
	sh    *sim.Engine
	opt   *ScaleShardOptions
	m     *shardMaster
	nodes []*shardNode
	// ids maps a heartbeat report's index to its node id. Written at
	// set-up and read-only afterwards, so the master may read it.
	ids  []int
	beat func() // bound once to sendHeartbeat

	reads     uint64
	readBytes sim.Bytes
	migrated  int
	migBytes  sim.Bytes
	evicted   int
}

// shardMaster is the control-shard state: the per-node migration-cost
// estimates Algorithm-1-style target picking scans, and the
// control-plane counters.
type shardMaster struct {
	est        []float64
	requested  int
	migrated   int
	heartbeats int
}

// newShardRack builds a rack shard's state and binds its heartbeat.
func newShardRack(sh *sim.Engine, opt *ScaleShardOptions, m *shardMaster) *shardRack {
	rk := &shardRack{sh: sh, opt: opt, m: m}
	rk.beat = rk.sendHeartbeat
	return rk
}

// addNode homes n on the rack and binds its read callbacks.
func (rk *shardRack) addNode(n *shardNode) {
	n.rk = rk
	n.startRead = n.beginRead
	n.readDone = n.endRead
	rk.nodes = append(rk.nodes, n)
	rk.ids = append(rk.ids, n.id)
}

// scheduleRead draws the node's exponential think time and schedules
// its next read, unless that falls past the end of the span.
func (n *shardNode) scheduleRead() {
	rk := n.rk
	at := rk.sh.Now().Add(sim.FloatDuration(n.rng.ExpFloat64() * float64(rk.opt.ReadEvery)))
	if at >= sim.Time(rk.opt.Virtual) {
		return
	}
	rk.sh.At(at, n.startRead)
}

// beginRead starts one block read on the node's disk.
func (n *shardNode) beginRead() {
	rk := n.rk
	n.outstanding++
	n.disk.Start(rk.opt.BlockSize, n.readDone)
}

// endRead records the completed read and schedules the next one.
func (n *shardNode) endRead(*sim.Flow) {
	rk := n.rk
	n.outstanding--
	rk.reads++
	rk.readBytes += rk.opt.BlockSize
	n.scheduleRead()
}

// sendHeartbeat snapshots the rack's outstanding-read gauges, in
// rack-node order, and Sends the report to the master, which folds it
// into the per-node cost estimates the target picker scans. Each report
// is a fresh slice, never mutated after Send — the immutability the
// cross-shard closure contract requires.
func (rk *shardRack) sendHeartbeat() {
	report := make([]int32, len(rk.nodes))
	for i, n := range rk.nodes {
		report[i] = int32(n.outstanding)
	}
	m, ids := rk.m, rk.ids
	rk.sh.Send(0, rk.opt.ControlLatency, func() {
		m.heartbeats++
		for i, o := range report {
			id := ids[i]
			m.est[id] = 0.7*m.est[id] + 0.3*float64(o)
		}
	})
	next := rk.sh.Now().Add(rk.opt.Heartbeat)
	if next < sim.Time(rk.opt.Virtual) {
		rk.sh.At(next, rk.beat)
	}
}

// RunScaleShard executes one partitioned scenario and returns its
// deterministic row. The run ends with hard invariant checks: every
// requested migration completed and reported, every buffered block
// evicted.
func RunScaleShard(opt ScaleShardOptions) (ScaleShardRow, error) {
	row := ScaleShardRow{
		Scenario:     opt.Scenario,
		Nodes:        opt.Nodes,
		Racks:        opt.Racks,
		VirtualHours: time.Duration(opt.Virtual).Hours(),
	}
	if opt.Nodes <= 0 || opt.Racks <= 0 || opt.Jobs <= 0 || opt.BlocksPerJob <= 0 {
		return row, fmt.Errorf("scaleshard %s: non-positive size parameter", opt.Scenario)
	}
	// Bad durations would otherwise panic on a worker goroutine, where
	// the caller cannot recover: a zero block size in flow admission, a
	// negative think time in scheduling, a zero control latency below
	// the lookahead, and a zero heartbeat spins at t=0 until the shard
	// outbox overflows.
	if opt.BlockSize <= 0 || opt.ReadEvery <= 0 || opt.Heartbeat <= 0 ||
		opt.ControlLatency <= 0 || opt.Virtual <= 0 {
		return row, fmt.Errorf("scaleshard %s: BlockSize, ReadEvery, Heartbeat, ControlLatency and Virtual must be positive", opt.Scenario)
	}

	look := cluster.MinLookahead(opt.ControlLatency, 0, opt.Heartbeat)
	part := cluster.PartitionByRack(opt.Nodes, opt.Racks)
	row.Shards = part.Shards()

	se := sim.NewShardedEngine(opt.Seed, part.Shards(), look)
	if opt.Workers > 0 {
		se.SetWorkers(opt.Workers)
	} else {
		se.SetWorkers(runtime.GOMAXPROCS(0))
	}
	master := se.Shard(0)
	span := sim.Time(opt.Virtual)

	m := &shardMaster{est: make([]float64, opt.Nodes)}
	racks := make([]*shardRack, part.Shards())
	for s := 1; s < part.Shards(); s++ {
		racks[s] = newShardRack(se.Shard(s), &opt, m)
	}

	// Per-node disk heterogeneity, drawn from a dedicated setup stream
	// in node order so it is independent of the partition layout.
	setupRng := sim.NewEngine(opt.Seed + 1).Rand()
	nodeCfg := cluster.DefaultNodeConfig()
	home := make([]*shardNode, opt.Nodes) // node id -> its shard-homed state
	for i := 0; i < opt.Nodes; i++ {
		scale := 1 - 0.65*setupRng.Float64() // 0.35..1x nominal bandwidth
		rk := racks[part.NodeShard(cluster.NodeID(i))]
		n := &shardNode{
			id:   i,
			disk: sim.NewResource(rk.sh, fmt.Sprintf("disk:%d", i), nodeCfg.DiskBandwidth*scale, sim.SeekEfficiency(nodeCfg.DiskSeekPenalty)),
			rng:  rand.New(rand.NewSource(opt.Seed ^ int64(uint64(i+1)*0x9E3779B97F4A7C15))),
		}
		rk.addNode(n)
		home[i] = n
	}

	// Closed-loop background reads: each node reads one block, waits an
	// exponential think time, reads again — until the span ends, at
	// which point the loop stops rescheduling and the drain below
	// finishes the in-flight flows.
	for s := 1; s < part.Shards(); s++ {
		for _, n := range racks[s].nodes {
			n.scheduleRead()
		}
	}

	// Per-rack heartbeats: every Heartbeat, each rack shard reports its
	// nodes' outstanding-read gauges to the master.
	for s := 1; s < part.Shards(); s++ {
		rk := racks[s]
		rk.sh.At(sim.Time(opt.Heartbeat), rk.beat)
	}

	// Rack-side migration: a weighted background flow on the target
	// node's disk; completion buffers the block, arms the rack-local
	// eviction timer, and reports back to the master. Eviction being
	// rack-local (not a master command) keeps the end-of-run residency
	// invariant independent of control-plane round trips.
	const migWeight = 0.3
	migrate := func(rk *shardRack, n *shardNode) {
		n.disk.StartWeighted(opt.BlockSize, migWeight, func(*sim.Flow) {
			rk.migrated++
			rk.migBytes += opt.BlockSize
			n.resident++
			rk.sh.Schedule(opt.Residency, func() {
				n.resident--
				rk.evicted++
			})
			id := n.id
			rk.sh.Send(0, opt.ControlLatency, func() {
				m.migrated++
				m.est[id] *= 0.8 // completed work decays the node's cost estimate
			})
		})
	}

	// Master-side job arrivals over the first 75% of the span: each job
	// picks its targets by scanning for the lowest-estimate nodes
	// (deterministic tiebreak by node id), penalizes each pick by the
	// nominal per-block migration cost so one job spreads across nodes,
	// and Sends one batched command per destination shard.
	blockCost := float64(opt.BlockSize) / nodeCfg.DiskBandwidth
	arrivalSpan := 0.75 * float64(opt.Virtual)
	for j := 0; j < opt.Jobs; j++ {
		submit := sim.Time(sim.FloatDuration(arrivalSpan * float64(j) / float64(opt.Jobs)))
		master.At(submit, func() {
			m.requested += opt.BlocksPerJob
			batches := make([][]*shardNode, part.Shards())
			for k := 0; k < opt.BlocksPerJob; k++ {
				best := 0
				for i := 1; i < opt.Nodes; i++ {
					if m.est[i] < m.est[best] {
						best = i
					}
				}
				m.est[best] += blockCost
				s := part.NodeShard(cluster.NodeID(best))
				batches[s] = append(batches[s], home[best])
			}
			for s, batch := range batches {
				if len(batch) == 0 {
					continue
				}
				rk, batch := racks[s], batch
				master.Send(s, opt.ControlLatency, func() {
					for _, n := range batch {
						migrate(rk, n)
					}
				})
			}
		})
	}

	se.RunUntil(span)
	se.Run() // drain: in-flight flows, migrations, eviction timers, reports

	row.EventsFired = se.EventsFired()
	row.Digest = fmt.Sprintf("%016x", se.Digest())
	row.Heartbeats = m.heartbeats
	prof := se.Profile()
	row.Rounds = prof.Rounds
	row.SoloRounds = prof.SoloRounds
	row.CrossShardMsgs = prof.Delivered
	for _, s := range prof.Stalled {
		row.LookaheadStalls += s
	}
	row.Requested = m.requested
	row.Migrated = m.migrated
	for s := 1; s < part.Shards(); s++ {
		rk := racks[s]
		row.Reads += rk.reads
		row.ReadTB += float64(rk.readBytes) / float64(sim.TB)
		row.Evicted += rk.evicted
		row.MigratedTB += float64(rk.migBytes) / float64(sim.TB)
	}

	// Hard end-of-run invariants: every requested migration completed
	// and its completion report reached the master; every buffered block
	// was evicted by its rack-local timer.
	rackMigrated := 0
	for s := 1; s < part.Shards(); s++ {
		rackMigrated += racks[s].migrated
		for _, n := range racks[s].nodes {
			if n.resident != 0 {
				return row, fmt.Errorf("scaleshard %s: node %d still buffers %d blocks after drain", opt.Scenario, n.id, n.resident)
			}
		}
	}
	if rackMigrated != m.requested || m.migrated != m.requested {
		return row, fmt.Errorf("scaleshard %s: requested %d, rack-migrated %d, master-acked %d",
			opt.Scenario, m.requested, rackMigrated, m.migrated)
	}
	if row.Evicted != rackMigrated {
		return row, fmt.Errorf("scaleshard %s: migrated %d but evicted %d", opt.Scenario, rackMigrated, row.Evicted)
	}
	return row, nil
}

// RunScaleShardFamily runs the given presets in order.
func RunScaleShardFamily(opts []ScaleShardOptions) (ScaleShardReport, error) {
	var rep ScaleShardReport
	for _, opt := range opts {
		row, err := RunScaleShard(opt)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// scaleShardExperiment registers the CI-sized preset, so -verify and
// the determinism gate prove the windowed multi-shard executor
// byte-identical run over run (the registry runs with GOMAXPROCS
// workers — any nondeterminism in the parallel engine shows up as a
// digest or counter diff here).
func scaleShardExperiment() Experiment {
	return Experiment{
		Name:    "scaleshard",
		Summary: "extension: partitioned datacenter model on the multi-core sharded engine",
		Run: func(seed int64) (any, error) {
			return RunScaleShardFamily([]ScaleShardOptions{ScaleShardSmokeOptions(seed)})
		},
		Merge: func(rep *FullReport, result any) {
			rep.ScaleShard = result.(ScaleShardReport).Rows
		},
	}
}
