// Package migration implements DYRS — the paper's bandwidth-aware
// disk-to-memory migration framework — together with the comparison
// schemes used in the evaluation:
//
//   - DYRS: delayed binding on slave pull, Algorithm 1 greedy
//     earliest-finish replica targeting, per-slave EWMA migration-time
//     estimation with in-progress inflation (§III, §IV).
//   - Ignem: a random replica is chosen and bound immediately when the
//     job is submitted (§VI, [8]).
//   - Naive: FIFO binding to any replica-holding slave with free queue
//     space — DYRS without straggler avoidance (Fig. 10 comparator).
//   - None: no migration (default HDFS).
//
// The framework side (slave queues, serialized FIFO migration, job
// reference lists, implicit/explicit eviction, hard memory limits,
// scavenging, failure recovery) is shared by all binding policies via
// Coordinator; a Binder supplies the policy.
package migration

import (
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// JobID identifies a job for reference-list bookkeeping.
type JobID int

// Manager is the interface the compute framework talks to. The job
// submitter calls Migrate during submission (the paper inserts the call
// in the Hadoop job-submitter / after Hive query compilation, §IV-B);
// Evict runs when the job finishes; NoteRead is invoked as tasks finish
// reading blocks and drives implicit eviction.
type Manager interface {
	// Migrate requests migration of the input files for the given job.
	// implicitEvict opts the job into eviction-on-read (§III-C3).
	Migrate(job JobID, files []string, implicitEvict bool) error
	// Evict clears the job from all reference lists, releasing blocks
	// whose lists become empty.
	Evict(job JobID)
	// NoteRead informs the manager that the job finished reading the
	// block (slaves extract the job id from read calls, §IV-A1).
	NoteRead(job JobID, block dfs.BlockID)
}

// ActiveJobChecker lets slaves ask the cluster scheduler which jobs are
// still running, used by the scavenging path that cleans up after jobs
// that died without evicting (§III-C3).
type ActiveJobChecker interface {
	JobActive(job JobID) bool
}

// alwaysActive is the fallback checker used when no scheduler is wired.
type alwaysActive struct{}

func (alwaysActive) JobActive(JobID) bool { return true }

// None is a Manager that performs no migration: the default-HDFS
// configuration in the evaluation.
type None struct{}

// Migrate is a no-op.
func (None) Migrate(JobID, []string, bool) error { return nil }

// Evict is a no-op.
func (None) Evict(JobID) {}

// NoteRead is a no-op.
func (None) NoteRead(JobID, dfs.BlockID) {}

// PinFiles pre-loads every block of the named files into memory at its
// first replica with no simulated cost — the paper's HDFS-Inputs-in-RAM
// configuration (inputs locked in RAM with vmtouch before the run, §V-A).
// It returns the total bytes pinned.
func PinFiles(fs *dfs.FS, files []string) (sim.Bytes, error) {
	ids, err := fs.FileBlockIDs(files)
	if err != nil {
		return 0, err
	}
	var total sim.Bytes
	for _, id := range ids {
		replicas := fs.Replicas(id)
		if len(replicas) == 0 {
			continue
		}
		fs.RegisterMem(id, replicas[0])
		total += fs.BlockSize(id)
	}
	return total, nil
}

// Config holds the tunables of the migration framework.
type Config struct {
	// Heartbeat is the slave->master query interval. Slaves refresh their
	// estimates and pull more work every heartbeat.
	Heartbeat time.Duration
	// TargetUpdateInterval is how often the master's off-critical-path
	// thread re-runs Algorithm 1 over the pending list (§III-D).
	TargetUpdateInterval time.Duration
	// CancelOnMissedRead discards not-yet-migrated blocks as soon as a
	// read makes migrating them pointless ("discarded due to missed
	// reads", §IV-A1). DYRS does this; Ignem, which binds blindly at
	// submission and never reconsiders, does not.
	CancelOnMissedRead bool
	// IOWeight is the fair-share weight of migration disk streams
	// relative to foreground reads (weight 1). Below 1 it makes
	// migration background traffic that consumes residual bandwidth —
	// the ionice-style priority the mmap/mlock readahead path gets
	// relative to synchronous task reads.
	IOWeight float64
	// MaxConcurrent caps simultaneous migrations per slave. DYRS
	// serializes migrations (1) to limit disk seek thrash (§III-B);
	// Ignem just mlocks every bound block at once (unbounded). Zero
	// means one.
	MaxConcurrent int
	// DisableEstimateSeries turns off the per-slave estimate time series
	// recorded every heartbeat (the data behind Fig. 9), so the heartbeat
	// round skips the sleeping slaves instead of recording their
	// unchanged estimates. A series stores a run per stretch of
	// unchanged estimate, so it grows with virtual time × node count
	// wherever estimates move. The datacenter-scale
	// experiments disable it: the scale workload of benchmark/ (seed 42)
	// allocates 58.0 MiB per run with it disabled and 61.2 MiB with the
	// series on.
	DisableEstimateSeries bool
	// Order selects how the master orders pending migrations across
	// jobs: the paper's FIFO, or the future-work policies SJF and EDF
	// (scheduler-cooperative earliest-deadline-first).
	Order OrderPolicy
}

// DefaultConfig returns the settings used in the evaluation runs.
func DefaultConfig() Config {
	return Config{
		Heartbeat:            1 * time.Second,
		TargetUpdateInterval: 500 * time.Millisecond,
		CancelOnMissedRead:   true,
		IOWeight:             0.25,
		MaxConcurrent:        1,
	}
}

const (
	// ewmaAlpha is the smoothing factor of the migration-time estimator.
	ewmaAlpha = 0.4
	// scavengeThreshold is the fraction of the node's MemCapacity (the
	// buffer's hard limit, §IV-A1) above which a slave queries the
	// scheduler and clears references of inactive jobs (§III-C3).
	scavengeThreshold = 0.8
)

// queueDepth derives a node's local queue depth, the paper's sizing:
// enough queued work to cover one heartbeat of migration at full disk
// speed (the heartbeat interval divided by one block's read time, plus
// one), and never less than 2 so the disk cannot idle while the slave
// is querying the master (§III-B).
func (c Config) queueDepth(blockSize sim.Bytes, diskBW float64) int {
	blockTime := float64(blockSize) / diskBW
	d := int(c.Heartbeat.Seconds()/blockTime) + 1
	if d < 2 {
		d = 2
	}
	return d
}

// Stats aggregates framework-wide counters.
type Stats struct {
	Requested     int // blocks requested for migration
	Migrated      int // migrations completed
	Readopted     int // requests satisfied by a surviving in-memory replica
	Dropped       int // pending/queued migrations cancelled (missed reads, evictions)
	Evicted       int // in-memory blocks released
	MissedReads   int // reads that arrived before the block reached memory
	MemoryHits    int // reads served after successful migration
	BytesMigrated sim.Bytes
}

// nodeEstimate is the per-slave state the master records from heartbeats:
// the slave's migration-time estimate and its current queue occupancy
// (§III-D: "During heartbeats, the master stores each slave's estimate of
// migration time and the number of blocks currently queued").
type nodeEstimate struct {
	perByte float64 // estimated seconds per byte
	queued  int     // blocks queued + active at the slave
	seen    bool    // a heartbeat has reported this slave
}

// blockState tracks where a requested block is in its migration
// lifecycle. It is one byte so it packs beside blockInfo's flags.
type blockState uint8

const (
	stateNone      blockState = iota // not tracked / released
	statePending                     // at master, unbound
	stateQueued                      // bound, waiting in a slave queue
	stateMigrating                   // being read into memory
	stateInMemory                    // resident; reads are redirected
)

func (s blockState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateQueued:
		return "queued"
	case stateMigrating:
		return "migrating"
	case stateInMemory:
		return "in-memory"
	}
	return "none"
}

// jobRef is one entry of a block's reference set: a job that requested
// the block, and whether that job opted into implicit eviction
// (§III-C3), so that its read of the block drops the reference.
type jobRef struct {
	job      JobID
	implicit bool
}

// jobSet is a block's reference list: the jobs referencing it, each
// with its implicit-evict mark, stored as an unsorted slice. A block is
// referenced by one or two jobs in practice, so linear scans win, and
// the whole set is one small array per block for the GC to trace. A
// job's implicit mark lives in its own entry, so the mark is dropped
// exactly when the reference is. All consumers (hint aggregation,
// scavenging) are order-independent, so the unsorted swap-remove is
// safe.
type jobSet []jobRef

// find returns the index of j's entry, or -1.
func (s jobSet) find(j JobID) int {
	for i, r := range s {
		if r.job == j {
			return i
		}
	}
	return -1
}

// add references j, marking it implicit when asked, and reports whether
// j was new. A job that already references the block gains the mark
// from an implicit request and never loses it to an explicit one.
func (s *jobSet) add(j JobID, implicit bool) bool {
	if i := s.find(j); i >= 0 {
		if implicit {
			(*s)[i].implicit = true
		}
		return false
	}
	*s = append(*s, jobRef{job: j, implicit: implicit})
	return true
}

// removeAt deletes entry i by swapping the last entry into its slot.
func (s *jobSet) removeAt(i int) {
	n := len(*s) - 1
	(*s)[i] = (*s)[n]
	*s = (*s)[:n]
}

// remove deletes j's entry if present.
func (s *jobSet) remove(j JobID) {
	if i := s.find(j); i >= 0 {
		s.removeAt(i)
	}
}

// blockInfo is the coordinator's record for one requested block. It
// carries the block's id and size directly (not a catalog view): at
// datacenter scale the master tracks up to millions of these, and the
// id+size pair is all the migration pipeline ever needs.
//
// Records are stored by value in the coordinator's fixed-size chunks
// (Coordinator.newRecord), which never move, so binder pending lists
// and slave queues hold plain pointers into them. A released record is
// reused for the next block requested (Coordinator.recycle), so the
// chunks hold the blocks in flight, not every block ever requested.
// The one-byte state and the five flags share the last word; the
// record is 104 bytes on 64-bit platforms (TestBlockInfoSize).
type blockInfo struct {
	id         dfs.BlockID
	size       sim.Bytes
	refs       jobSet
	slave      cluster.NodeID // binding location once queued
	target     cluster.NodeID // Algorithm 1 target while pending
	enqueuedAt sim.Time
	// requestedAt / pinnedAt feed the streaming lead-time and margin
	// histograms. They are plain timestamps, not span lookups, so the
	// metrics stay exact when span sampling drops the migration span.
	requestedAt sim.Time
	pinnedAt    sim.Time
	// span is the block's migration lifecycle trace span, opened at the
	// Migrate request and closed at pin, drop or abort. Zero (no-op)
	// when the run is untraced.
	span trace.SpanRef

	state     blockState
	hasTarget bool
	// leadRecorded gates the lead/margin observation to the block's
	// first in-memory read, matching the summary's definitions.
	leadRecorded bool
	// detached marks a record the master forgot in a fail-over while the
	// slave side kept running; its later transitions no longer touch the
	// master's incremental state counts (see Coordinator.transition).
	detached bool
	// inPending marks a live entry in the DYRS binder's pending list.
	// The list is compacted lazily (entries are tombstoned on bind or
	// removal, reclaimed in bulk), so the flag — not list membership —
	// is the source of truth for "still awaiting binding".
	inPending bool
	// listed marks a record that has an entry, live or tombstoned, in
	// the DYRS binder's pending list. Such a record is not recycled, and
	// a re-request revives its entry instead of adding a second one.
	listed bool
}
