package migration

import (
	"sort"

	"dyrs/internal/sim"
)

// OrderPolicy selects how the master orders pending migrations across
// jobs. The paper schedules migrations FIFO and names alternative
// policies and cooperation with the job scheduler as future work (§III);
// the non-FIFO policies below implement that extension.
type OrderPolicy int

const (
	// OrderFIFO processes migration requests in arrival order — the
	// paper's policy.
	OrderFIFO OrderPolicy = iota
	// OrderSJF orders blocks of smaller jobs first. Small jobs need few
	// blocks migrated to run entirely from memory, so SJF maximizes the
	// number of jobs whose whole input makes it into memory in time.
	OrderSJF
	// OrderEDF (earliest deadline first) orders blocks by how soon
	// their job's tasks are expected to launch, using hints from the
	// cluster scheduler — the "cooperation with the job scheduler" the
	// paper sketches. Blocks whose lead-time expires soonest migrate
	// first.
	OrderEDF
)

// String names the policy.
func (o OrderPolicy) String() string {
	switch o {
	case OrderSJF:
		return "SJF"
	case OrderEDF:
		return "EDF"
	}
	return "FIFO"
}

// JobHint is scheduler-provided metadata about a job with pending
// migrations.
type JobHint struct {
	// ExpectedStart is when the scheduler expects the job's first tasks
	// to launch (submission + platform overheads + queueing estimate).
	ExpectedStart sim.Time
	// InputBytes is the job's total input size.
	InputBytes sim.Bytes
}

// SetJobHint implements Manager.
func (c *Coordinator) SetJobHint(job JobID, hint JobHint) {
	c.hints[job] = hint
	c.hintEpoch++
}

// hintFor aggregates hints over all jobs referencing a block: the
// earliest expected start and the smallest job size win, since either
// makes the block more urgent.
func (c *Coordinator) hintFor(bi *blockInfo) (start sim.Time, bytes sim.Bytes) {
	first := true
	for _, r := range bi.refs {
		h, ok := c.hints[r.job]
		if !ok {
			continue
		}
		if first || h.ExpectedStart < start {
			start = h.ExpectedStart
		}
		if first || h.InputBytes < bytes {
			bytes = h.InputBytes
		}
		first = false
	}
	if first {
		// No hints: treat as urgent-now with unknown (large) size so
		// unhinted requests are not starved by hinted ones.
		return 0, 1 << 62
	}
	return start, bytes
}

// orderPending stably sorts the pending list according to the
// configured policy. FIFO keeps arrival order (no-op).
func (c *Coordinator) orderPending(pending []*blockInfo) {
	switch c.cfg.Order {
	case OrderSJF:
		sort.SliceStable(pending, func(i, j int) bool {
			_, bi := c.hintFor(pending[i])
			_, bj := c.hintFor(pending[j])
			return bi < bj
		})
	case OrderEDF:
		sort.SliceStable(pending, func(i, j int) bool {
			si, _ := c.hintFor(pending[i])
			sj, _ := c.hintFor(pending[j])
			return si < sj
		})
	}
}
