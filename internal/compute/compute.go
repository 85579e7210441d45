// Package compute is the data-processing substrate: a YARN-like
// slot-based cluster scheduler running MapReduce-style jobs over the
// simulated DFS. It provides everything the DYRS evaluation needs from
// Tez/Hadoop: job queueing (the main source of lead-time), per-job
// platform overhead, locality-aware map task placement, shuffle and
// reduce phases, and the migration hook in the job submitter (§IV-B).
package compute

import (
	"fmt"
	"math"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// JobSpec describes one MapReduce job.
type JobSpec struct {
	// Name labels the job in results.
	Name string
	// InputFiles are DFS files; one map task runs per input block. A
	// file listed twice is read twice, as Hadoop does with duplicate
	// input paths.
	InputFiles []string

	// MapCPUPerByte is seconds of map computation per input byte.
	MapCPUPerByte float64
	// MapOutputRatio is shuffle bytes produced per input byte (the
	// paper's motivating jobs filter heavily, so this is usually small).
	MapOutputRatio float64

	// Reducers is the number of reduce tasks; 0 makes a map-only job.
	Reducers int
	// ReduceCPUPerByte is seconds of reduce computation per shuffle byte.
	ReduceCPUPerByte float64
	// OutputRatio is job output bytes per shuffle byte.
	OutputRatio float64

	// PlatformOverhead is fixed job-setup time between submission and
	// tasks becoming runnable (container launch, JVM warm-up) — a main
	// source of lead-time (§II-C1).
	PlatformOverhead time.Duration
	// ExtraLeadTime is artificially inserted lead-time (Fig. 11).
	ExtraLeadTime time.Duration
	// TaskOverhead is fixed per-task startup time.
	TaskOverhead time.Duration

	// Migrate asks the Manager for the inputs at submission (it alone
	// decides what moves); ImplicitEvict opts into eviction-on-read.
	Migrate       bool
	ImplicitEvict bool
}

// DefaultOverheads fills in the typical constants used across the
// evaluation: 1.5 s platform overhead and 0.3 s task overhead.
func (s JobSpec) DefaultOverheads() JobSpec {
	if s.PlatformOverhead == 0 {
		s.PlatformOverhead = 1500 * time.Millisecond
	}
	if s.TaskOverhead == 0 {
		s.TaskOverhead = 300 * time.Millisecond
	}
	return s
}

// validate rejects a spec whose rates, reducer count or overheads would
// reach a task's timers as non-finite or negative durations. A CPU rate
// is also rejected when the CPU time of the largest byte count
// overflows float64; one that merely outlasts the clock's range
// saturates the task's timer, and the task never finishes.
func (s JobSpec) validate() error {
	for _, f := range []struct {
		name string
		v    float64
		cpu  bool
	}{
		{"MapCPUPerByte", s.MapCPUPerByte, true},
		{"MapOutputRatio", s.MapOutputRatio, false},
		{"ReduceCPUPerByte", s.ReduceCPUPerByte, true},
		{"OutputRatio", s.OutputRatio, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("compute: job %q: %s %v is not a finite non-negative number", s.Name, f.name, f.v)
		}
		if f.cpu && math.IsInf(f.v*math.MaxInt64*float64(sim.Second), 1) {
			return fmt.Errorf("compute: job %q: %s %v s/B overflows the CPU time of a large task", s.Name, f.name, f.v)
		}
	}
	if s.Reducers < 0 {
		return fmt.Errorf("compute: job %q: negative Reducers %d", s.Name, s.Reducers)
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"PlatformOverhead", s.PlatformOverhead},
		{"ExtraLeadTime", s.ExtraLeadTime},
		{"TaskOverhead", s.TaskOverhead},
	} {
		if f.d < 0 {
			return fmt.Errorf("compute: job %q: negative %s %v", s.Name, f.name, f.d)
		}
	}
	return nil
}

// TaskResult records one map task's execution.
type TaskResult struct {
	Block    dfs.BlockID
	Node     cluster.NodeID
	Source   dfs.ReadSource
	Started  sim.Time
	ReadDone sim.Time
	Finished sim.Time
}

// Duration reports the task's total runtime.
func (t TaskResult) Duration() sim.Duration { return t.Finished.Sub(t.Started) }

// JobState tracks a job through its lifecycle.
type JobState int

// Job lifecycle states.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
)

// Job is a submitted job instance.
type Job struct {
	ID   migration.JobID
	Spec JobSpec

	Submitted    sim.Time
	Ready        sim.Time // tasks runnable (after overhead + extra lead)
	FirstTask    sim.Time
	MapDone      sim.Time
	Finished     sim.Time
	State        JobState
	InputBytes   sim.Bytes
	ShuffleBytes sim.Bytes
	OutputBytes  sim.Bytes

	Tasks []TaskResult

	span         trace.SpanRef // job lifecycle span (submission to finish)
	mapsRunning  int
	mapsDone     int
	totalMaps    int
	reducersLeft int
	started      bool
}

// Duration reports submission-to-completion time (the paper's job
// duration, which includes lead-time).
func (j *Job) Duration() sim.Duration { return j.Finished.Sub(j.Submitted) }

// MapPhase reports the duration of the map phase: first task launch to
// last map completion.
func (j *Job) MapPhase() sim.Duration { return j.MapDone.Sub(j.FirstTask) }

// LeadTime reports submission-to-first-task time — exactly the paper's
// job lead-time definition (§II-C1).
func (j *Job) LeadTime() sim.Duration { return j.FirstTask.Sub(j.Submitted) }

// task is one schedulable unit, and from launch to completion one
// pooled op under the reuse contract of dfs's block I/O ops (DESIGN.md
// §6). It carries its run state, and its engine, read, NIC and write
// callbacks are method values bound once, when the task is first
// allocated, so a task runs without allocating. Its last step records
// its result, ends its span and recycles it before it calls mapDone or
// reduceDone; nothing touches a task after it is recycled.
type task struct {
	fw      *Framework
	job     *Job
	block   dfs.BlockID // map tasks only
	size    sim.Bytes   // a map task's block size
	isMap   bool
	reducer int
	queued  sim.Time // when the task became runnable

	node  cluster.NodeID
	start sim.Time
	span  trace.SpanRef
	read  dfs.ReadResult // a map task's input read

	afterOverhead func()               // the task-overhead timer's callback
	afterRead     func(dfs.ReadResult) // a map task's read completion
	afterCPU      func()               // the compute timer's callback
	afterShuffle  func(*sim.Flow)      // a reduce task's shuffle fetch
	afterWrite    func()               // a reduce task's output write
}

// maxFreeTasks caps the framework's task pool, as dfs caps its op
// pools: past a burst of pending tasks, drained tasks beyond the cap are
// left to the garbage collector.
const maxFreeTasks = 1 << 13

// newTask takes a task from the pool, or allocates one, and fills in
// its identity.
func (fw *Framework) newTask(j *Job, isMap bool, block dfs.BlockID, size sim.Bytes, reducer int) *task {
	var t *task
	if n := len(fw.freeTasks); n > 0 {
		t = fw.freeTasks[n-1]
		fw.freeTasks[n-1] = nil
		fw.freeTasks = fw.freeTasks[:n-1]
	} else {
		t = &task{fw: fw}
		t.afterOverhead = t.onRun
		t.afterRead = t.onRead
		t.afterCPU = t.onCPU
		t.afterShuffle = t.onShuffle
		t.afterWrite = t.finishReduce
	}
	t.job, t.isMap, t.block, t.size, t.reducer, t.queued = j, isMap, block, size, reducer, fw.eng.Now()
	return t
}

// recycle clears the task's references and returns it to the pool.
func (t *task) recycle() {
	t.job, t.span = nil, trace.SpanRef{}
	if fw := t.fw; len(fw.freeTasks) < maxFreeTasks {
		fw.freeTasks = append(fw.freeTasks, t)
	}
}

// localityDelay is how long a map task waits for a slot on a node
// holding its data before settling for a non-local slot — Hadoop's
// delay scheduling.
const localityDelay = 3 * time.Second

// Framework is the cluster compute scheduler.
type Framework struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.FS
	mgr migration.Manager
	tr  *trace.Tracer // run tracer; nil (no-op) when untraced

	freeSlots []int
	pending   []*task
	freeTasks []*task // recycled tasks
	jobs      []*Job  // by ID-1; IDs are assigned 1, 2, 3, ...
	done      []*Job
	onDone    []func(*Job)

	// scheduling rotation for non-local placement
	rot int
	// retry is armed when tasks were deferred waiting for locality;
	// retryPass, bound once, is its callback.
	retry     *sim.Event
	retryPass func()
	// replicas is placeTask's scratch buffer for replica lookups.
	replicas []cluster.NodeID
}

// New creates a compute framework over the file system, wiring the
// migration manager into the job submitter.
func New(fs *dfs.FS, mgr migration.Manager) *Framework {
	if mgr == nil {
		mgr = migration.None{}
	}
	cl := fs.Cluster()
	fw := &Framework{
		eng: cl.Engine(),
		cl:  cl,
		fs:  fs,
		mgr: mgr,
		tr:  trace.FromEngine(cl.Engine()),
	}
	fw.retryPass = func() {
		fw.retry = nil
		fw.trySchedule()
	}
	for _, n := range cl.Nodes() {
		fw.freeSlots = append(fw.freeSlots, n.Cfg.TaskSlots)
	}
	return fw
}

// JobActive implements migration.ActiveJobChecker for scavenging.
func (fw *Framework) JobActive(id migration.JobID) bool {
	j := fw.Job(id)
	return j != nil && j.State != JobDone
}

// OnJobDone registers a completion callback.
func (fw *Framework) OnJobDone(fn func(*Job)) { fw.onDone = append(fw.onDone, fn) }

// Results returns completed jobs in completion order.
func (fw *Framework) Results() []*Job { return fw.done }

// Job returns a submitted job by id, or nil for an id never assigned.
func (fw *Framework) Job(id migration.JobID) *Job {
	if id < 1 || int(id) > len(fw.jobs) {
		return nil
	}
	return fw.jobs[id-1]
}

// Submit enters a job at the current instant. The migration request is
// issued immediately — inside the job submitter, before any platform
// overhead, to maximize usable lead-time (§IV-B).
func (fw *Framework) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	blocks, err := fw.fs.FileBlockIDs(spec.InputFiles)
	if err != nil {
		return nil, fmt.Errorf("compute: %w", err)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("compute: job %q has no input blocks", spec.Name)
	}
	j := &Job{
		ID:        migration.JobID(len(fw.jobs) + 1),
		Spec:      spec,
		Submitted: fw.eng.Now(),
		State:     JobQueued,
		Tasks:     make([]TaskResult, 0, len(blocks)),
		totalMaps: len(blocks),
	}
	for _, id := range blocks {
		j.InputBytes += fw.fs.BlockSize(id)
	}
	j.ShuffleBytes = sim.Bytes(float64(j.InputBytes) * spec.MapOutputRatio)
	j.OutputBytes = sim.Bytes(float64(j.ShuffleBytes) * spec.OutputRatio)
	fw.jobs = append(fw.jobs, j)
	if fw.tr.Enabled() {
		name := spec.Name
		if name == "" {
			name = "job"
		}
		j.span = fw.tr.Begin("job", name, trace.NodeMaster,
			trace.Int("job", int64(j.ID)),
			trace.Int("maps", int64(j.totalMaps)),
			trace.Int("input-bytes", int64(j.InputBytes)))
	}

	if spec.Migrate {
		if err := fw.mgr.Migrate(j.ID, spec.InputFiles, spec.ImplicitEvict); err != nil {
			return nil, err
		}
		// Scheduler cooperation: tell the migration master when this
		// job's tasks are expected to launch and how much input it has,
		// so deadline- and size-aware ordering policies can use it.
		if hs, ok := fw.mgr.(migration.HintSink); ok {
			hs.SetJobHint(j.ID, migration.JobHint{
				ExpectedStart: fw.eng.Now().Add(spec.PlatformOverhead + spec.ExtraLeadTime),
				InputBytes:    j.InputBytes,
			})
		}
	}

	lead := spec.PlatformOverhead + spec.ExtraLeadTime
	fw.eng.Schedule(lead, func() {
		j.Ready = fw.eng.Now()
		j.State = JobRunning
		for _, id := range blocks {
			fw.pending = append(fw.pending, fw.newTask(j, true, id, fw.fs.BlockSize(id), 0))
		}
		fw.trySchedule()
	})
	return j, nil
}

// SubmitAt schedules a submission at a future instant (trace replay).
func (fw *Framework) SubmitAt(at sim.Time, spec JobSpec, cb func(*Job, error)) {
	fw.eng.At(at, func() {
		j, err := fw.Submit(spec)
		if cb != nil {
			cb(j, err)
		}
	})
}

// trySchedule assigns pending tasks to free slots. Map tasks prefer the
// node holding the in-memory replica of their block, then any node with
// a disk replica; like Hadoop's delay scheduling they wait up to
// localityDelay for a local slot before settling for any free slot.
// Reduce tasks take any free slot, rotating for balance. The pass
// filters fw.pending in place (launch never touches it synchronously),
// so it allocates nothing.
func (fw *Framework) trySchedule() {
	if len(fw.pending) == 0 {
		return
	}
	deferred := false
	still := fw.pending[:0]
	for _, t := range fw.pending {
		node := fw.placeTask(t)
		if node < 0 {
			still = append(still, t)
			if t.isMap {
				deferred = true
			}
			continue
		}
		fw.freeSlots[int(node)]--
		fw.launch(t, node)
	}
	clear(fw.pending[len(still):])
	fw.pending = still
	if deferred && fw.retry == nil {
		// A deferred task's locality delay can expire without any other
		// event firing; poll for it.
		fw.retry = fw.eng.Schedule(500*time.Millisecond, fw.retryPass)
	}
}

// placeTask picks a node for the task, or -1 when the task should wait.
func (fw *Framework) placeTask(t *task) cluster.NodeID {
	if t.isMap {
		if mem, found := fw.fs.MemReplica(t.block); found && fw.slotFree(mem) {
			return mem
		}
		fw.replicas = fw.fs.LiveReplicas(t.block, fw.replicas[:0])
		for _, r := range fw.replicas {
			if fw.slotFree(r) {
				return r
			}
		}
		// No local slot: hold out for locality until the delay expires.
		if fw.eng.Now().Sub(t.queued) < localityDelay {
			return -1
		}
	}
	// Any free slot, rotating so non-local work spreads.
	n := fw.cl.Size()
	for i := 0; i < n; i++ {
		id := cluster.NodeID((fw.rot + i) % n)
		if fw.slotFree(id) {
			fw.rot = (int(id) + 1) % n
			return id
		}
	}
	return -1
}

func (fw *Framework) slotFree(id cluster.NodeID) bool {
	return fw.cl.Node(id).Alive() && fw.freeSlots[int(id)] > 0
}

// launch starts a task on the chosen node: its startup overhead first.
func (fw *Framework) launch(t *task, node cluster.NodeID) {
	j := t.job
	t.node, t.start = node, fw.eng.Now()
	if t.isMap {
		j.mapsRunning++
		if !j.started {
			j.started = true
			j.FirstTask = t.start
		}
		if fw.tr.Enabled() {
			t.span = j.span.Child("task", "map", int(node),
				trace.Int("job", int64(j.ID)),
				trace.Int("block", int64(t.block)))
			fw.tr.Inc("task.map")
		}
	} else if fw.tr.Enabled() {
		t.span = j.span.Child("task", "reduce", int(node),
			trace.Int("job", int64(j.ID)),
			trace.Int("reducer", int64(t.reducer)))
		fw.tr.Inc("task.reduce")
	}
	fw.eng.Schedule(j.Spec.TaskOverhead, t.afterOverhead)
}

// onRun follows the task overhead. A map task reads its block; a reduce
// task fetches its shuffle share over the NIC, or computes at once when
// the share is empty.
func (t *task) onRun() {
	if !t.isMap {
		if share := t.job.shuffleShare(); share > 0 {
			t.fw.cl.Node(t.node).NIC.Start(share, t.afterShuffle)
		} else {
			t.onShuffle(nil)
		}
		return
	}
	// ReadBlock's error path, or its done, may recycle t: keep what the
	// read notice needs.
	fw, jobID, id := t.fw, t.job.ID, t.block
	if err := fw.fs.ReadBlock(t.node, id, t.afterRead); err != nil {
		// No live replica: the task fails; count it done so the job can
		// finish degraded rather than hang.
		t.fail()
		return
	}
	// The slave sees the read call as it happens (§IV-A1): notifying at
	// read start lets the framework cancel migrations the read has
	// already made pointless.
	fw.mgr.NoteRead(jobID, id)
}

// onRead starts a map task's computation once its block is read.
func (t *task) onRead(rr dfs.ReadResult) {
	if rr.Failed {
		// Every replica vanished mid-failover: the task fails; count the
		// block done so the job finishes degraded rather than hanging.
		t.fail()
		return
	}
	t.read = rr
	cpu := sim.FloatDuration(t.job.Spec.MapCPUPerByte * float64(t.size) * float64(sim.Second))
	t.fw.eng.Schedule(cpu, t.afterCPU)
}

// fail ends a map task whose read found no replica.
func (t *task) fail() {
	fw, j, node := t.fw, t.job, t.node
	t.span.End(trace.Str("outcome", "failed"))
	t.recycle()
	fw.mapDone(j, node)
}

// onShuffle starts a reduce task's computation over its shuffle share.
func (t *task) onShuffle(*sim.Flow) {
	cpu := sim.FloatDuration(t.job.Spec.ReduceCPUPerByte * float64(t.job.shuffleShare()) * float64(sim.Second))
	t.fw.eng.Schedule(cpu, t.afterCPU)
}

// onCPU follows the computation. A map task records its result and
// completes; a reduce task writes its output share, if any, first.
func (t *task) onCPU() {
	fw, j, node := t.fw, t.job, t.node
	if !t.isMap {
		if out := j.OutputBytes / sim.Bytes(j.Spec.Reducers); out > 0 {
			fw.fs.WriteBlocks(node, out, t.afterWrite)
		} else {
			t.finishReduce()
		}
		return
	}
	j.Tasks = append(j.Tasks, TaskResult{
		Block:    t.block,
		Node:     node,
		Source:   t.read.Source,
		Started:  t.start,
		ReadDone: t.read.Finished,
		Finished: fw.eng.Now(),
	})
	t.span.End(trace.Str("source", t.read.Source.String()))
	t.recycle()
	fw.mapDone(j, node)
}

// finishReduce completes a reduce task.
func (t *task) finishReduce() {
	fw, j, node := t.fw, t.job, t.node
	t.span.End()
	t.recycle()
	fw.reduceDone(j, node)
}

// shuffleShare is the shuffle bytes each reduce task fetches.
func (j *Job) shuffleShare() sim.Bytes { return j.ShuffleBytes / sim.Bytes(j.Spec.Reducers) }

func (fw *Framework) mapDone(j *Job, node cluster.NodeID) {
	j.mapsRunning--
	j.mapsDone++
	fw.freeSlots[int(node)]++
	if j.mapsDone == j.totalMaps {
		j.MapDone = fw.eng.Now()
		if j.Spec.Reducers > 0 && j.ShuffleBytes > 0 {
			j.reducersLeft = j.Spec.Reducers
			for r := 0; r < j.Spec.Reducers; r++ {
				fw.pending = append(fw.pending, fw.newTask(j, false, 0, 0, r))
			}
		} else {
			fw.finishJob(j)
		}
	}
	fw.trySchedule()
}

func (fw *Framework) reduceDone(j *Job, node cluster.NodeID) {
	fw.freeSlots[int(node)]++
	j.reducersLeft--
	if j.reducersLeft == 0 {
		fw.finishJob(j)
	}
	fw.trySchedule()
}

func (fw *Framework) finishJob(j *Job) {
	j.Finished = fw.eng.Now()
	j.State = JobDone
	j.span.End(trace.Dur("lead-time", j.LeadTime()))
	// Job completion evicts its inputs (the framework issues the evict
	// command on the job's behalf, §III-C3).
	fw.mgr.Evict(j.ID)
	fw.done = append(fw.done, j)
	for _, fn := range fw.onDone {
		fn(j)
	}
}

var _ migration.ActiveJobChecker = (*Framework)(nil)
