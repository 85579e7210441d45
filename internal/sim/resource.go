package sim

import (
	"fmt"
	"math"
)

// Bytes is a data quantity in bytes.
type Bytes = int64

// Common byte quantities.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(b Bytes) string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", b)
}

// EfficiencyFunc maps the current load — the summed fair-share weights of
// the active flows — to the fraction of nominal capacity the device can
// sustain. It models the seek overhead a disk pays when serving
// interleaved streams: n equal-weight foreground streams present load n,
// while a low-weight background stream (e.g. a deprioritized migration)
// adds only its fractional share of seek pressure. It must return a value
// in (0, 1] and should be non-increasing.
type EfficiencyFunc func(load float64) float64

// FlatEfficiency ignores concurrency; suitable for NICs and memory.
func FlatEfficiency(float64) float64 { return 1 }

// SeekEfficiency returns an EfficiencyFunc where each unit of additional
// concurrent load costs penalty of the device's total throughput:
// eff(w) = 1 / (1 + penalty*(w-1)).
func SeekEfficiency(penalty float64) EfficiencyFunc {
	return func(load float64) float64 {
		if load <= 1 {
			return 1
		}
		return 1 / (1 + penalty*(load-1))
	}
}

// FlowSink observes flow lifecycle on every Resource of an Engine.
// Install with Engine.SetFlowSink. FlowStarted fires on admission
// (Start/StartWeighted/StartLoad); FlowEnded fires on completion
// (completed=true, before the flow's done callback) or cancellation
// (completed=false). Implemented by the internal/trace Tracer.
type FlowSink interface {
	FlowStarted(r *Resource, f *Flow)
	FlowEnded(r *Resource, f *Flow, completed bool)
}

// Flow is one transfer in progress on a Resource. Flows receive a
// weighted fair share of the resource's current effective capacity and
// complete when their remaining bytes reach zero.
//
// Completed flows are pooled: once the done callback has returned, the
// Resource recycles the Flow struct for a later admission, so a handle
// to a completed flow is valid only until its done callback returns
// (mirroring the Engine's Event pooling contract). Cancelled flows are
// never recycled — a cancel can race with a held handle elsewhere in
// the model, so Cancel leaves the struct to the garbage collector and
// stays a safe no-op on any already-ended flow it still points at.
type Flow struct {
	res    *Resource
	tag    float64 // normalized virtual finish tag; +Inf for persistent
	weight float64
	seq    uint64 // admission sequence, tie-breaks equal tags
	pos    int32  // heap slot index, for O(log n) removal

	started Time
	done    func(f *Flow)
	active  bool
	total   float64 // original size, NaN for persistent

	// Materialized at the end of the flow's life: remaining bytes and
	// last rate, so tests can read an ended flow without resource state.
	endRem  float64
	endRate float64
}

// Size reports the flow's original size in bytes, or 0 for persistent
// load flows (which have no size).
func (f *Flow) Size() Bytes {
	if math.IsNaN(f.total) {
		return 0
	}
	return Bytes(f.total)
}

// Resource models a device with a shared, time-varying capacity —
// a disk or a NIC. Concurrent flows share the effective capacity in
// proportion to their weights (generalized processor sharing), and the
// effective capacity is baseCapacity × scale × efficiency(load).
//
// This fluid-flow model is what makes residual-bandwidth effects emerge
// naturally: interference flows, task reads and migrations all compete on
// the same Resource and each automatically slows the others down.
//
// # Virtual service time
//
// Under GPS every active flow f drains at rate totalRate·w_f/W, so the
// normalized backlog remaining_f/w_f decreases at the flow-independent
// rate vRate = totalRate/W. The resource therefore tracks a single
// virtual-service accumulator V (vsrv) instead of per-flow remaining
// counters: a flow admitted when the accumulator reads V₀ carries the
// constant finish tag V₀ + size/w and completes exactly when V reaches
// its tag. Admissions, cancellations and capacity changes alter only the
// rate at which V advances — never the tags — so the completion order
// (tag, admission seq) is invariant and a probe or state change costs
// O(1) accounting instead of a walk over every active flow.
//
// Accounting is lazy: advance() accrues busy time, V and the aggregate
// bytesMoved from the cached rates in O(1); a flow's own byte position
// is materialized only at its completion/cancel boundary (and on
// Remaining probes) as (tag − V)·w.
//
// The finite flows live in an indexed min-heap on (tag, seq) — see
// flowheap.go — so the single completion timer re-arms from the heap
// head in O(1) and the same-instant completion cascade pops ripe flows
// in O(log n) each, replacing the previous design's O(n) rescans.
// Removal by handle is O(log n) via the flow's stored heap slot.
//
// State changes within one virtual instant coalesce: each marks the
// resource dirty and the rates/timer are recomputed once, by a flush
// event that fires after every same-instant model event (it is
// scheduled at the current instant with a later sequence number). A
// burst of admissions therefore costs one rebalance, not one per flow.
//
// When the resource idles (no active flows) V, W and the cached rates
// reset to zero, so float drift cannot accumulate across busy periods.
type Resource struct {
	eng   *Engine
	name  string
	base  float64 // bytes/sec nominal
	scale float64 // dynamic capacity multiplier (hardware heterogeneity)
	eff   EfficiencyFunc

	// Virtual-service state. vsrv is V(t): cumulative normalized service
	// per unit weight this busy period. vRate and totalRate are cached at
	// the last flush (or cascade repricing) and stay valid for the whole
	// inter-event interval, because any state change re-flushes within
	// the same virtual instant.
	vsrv      float64
	vRate     float64 // dV/dt = totalRate/totalW
	totalRate float64 // base × scale × eff(totalW)
	// totalW is the summed weight of the active flows, maintained
	// incrementally (and reset to zero whenever the resource idles, so
	// float drift cannot accumulate across busy periods).
	totalW   float64
	admitSeq uint64

	// heap holds every active flow ordered by (tag, seq); see flowheap.go.
	heap []*Flow

	lastUpdate Time
	timer      *Event // single completion timer; nil when nothing finite runs
	timerFn    func() // bound once so re-arming allocates nothing
	dirty      bool   // a same-instant flush event is pending
	flushFn    func() // bound once so coalescing allocates nothing

	free []*Flow // recycled completed Flow structs; steady state allocates none

	// accounting
	bytesMoved float64 // total bytes transferred through this resource
	busy       Duration
}

// NewResource creates a resource with the given nominal capacity in
// bytes/sec. eff may be nil for flat (no concurrency penalty) behaviour.
func NewResource(eng *Engine, name string, capacity float64, eff EfficiencyFunc) *Resource {
	if !(capacity > 0) {
		panic("sim: resource capacity must be positive")
	}
	if eff == nil {
		eff = FlatEfficiency
	}
	r := &Resource{
		eng:   eng,
		name:  name,
		base:  capacity,
		scale: 1,
		eff:   eff,
	}
	r.timerFn = r.onTimer
	r.flushFn = r.flush
	return r
}

// Name reports the resource's identifier, e.g. "disk:node3".
func (r *Resource) Name() string { return r.name }

// Capacity reports the nominal capacity in bytes/sec before scaling.
func (r *Resource) Capacity() float64 { return r.base }

// ActiveFlows reports the number of in-progress flows.
//
//lint:testapi other packages' tests check that their flows drained
func (r *Resource) ActiveFlows() int { return len(r.heap) }

// BytesMoved reports the cumulative bytes transferred through this
// resource up to the current instant, including progress of active flows.
//
//lint:testapi dfs tests count the bytes a read moved through a disk or NIC
func (r *Resource) BytesMoved() Bytes {
	r.advance()
	return Bytes(r.bytesMoved)
}

// BusyTime reports the cumulative time the resource had at least one
// active flow.
func (r *Resource) BusyTime() Duration {
	r.advance()
	return r.busy
}

// SetScale changes the dynamic capacity multiplier (e.g. 0.3 for a
// handicapped node). Active flows are re-rated at this instant.
func (r *Resource) SetScale(s float64) {
	if !(s > 0) {
		panic("sim: resource scale must be positive")
	}
	r.advance()
	r.scale = s
	r.markDirty()
}

// Scale reports the current capacity multiplier.
//
//lint:testapi cluster tests check that a node's disk scale reached its resource
func (r *Resource) Scale() float64 { return r.scale }

// Start admits a transfer of size bytes with weight 1. done, if non-nil,
// runs when the transfer completes.
func (r *Resource) Start(size Bytes, done func(f *Flow)) *Flow {
	return r.StartWeighted(size, 1, done)
}

// StartWeighted admits a transfer of size bytes with the given fair-share
// weight.
func (r *Resource) StartWeighted(size Bytes, weight float64, done func(f *Flow)) *Flow {
	if size <= 0 {
		panic("sim: flow size must be positive")
	}
	if !(weight > 0) {
		panic("sim: flow weight must be positive")
	}
	r.advance()
	f := r.admit(r.vsrv+float64(size)/weight, float64(size), weight, done)
	if s := r.eng.flowSink; s != nil {
		s.FlowStarted(r, f)
	}
	return f
}

// StartLoad admits a persistent flow that never completes on its own —
// a background interference stream (the paper's dd jobs). It is removed
// with Flow.Cancel.
func (r *Resource) StartLoad(weight float64) *Flow {
	if !(weight > 0) {
		panic("sim: flow weight must be positive")
	}
	r.advance()
	f := r.admit(math.Inf(1), math.NaN(), weight, nil)
	if s := r.eng.flowSink; s != nil {
		s.FlowStarted(r, f)
	}
	return f
}

// admit builds a flow (from the pool when possible), links it into the
// active set and schedules the same-instant rebalance. The tag must be
// final before the flow enters the heap.
func (r *Resource) admit(tag, total, weight float64, done func(f *Flow)) *Flow {
	var f *Flow
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		f = &Flow{}
	}
	f.res = r
	f.tag = tag
	f.total = total
	f.weight = weight
	f.started = r.eng.Now()
	f.done = done
	f.active = true
	f.seq = r.admitSeq
	r.admitSeq++
	r.heapPush(f)
	r.totalW += weight
	r.markDirty()
	return f
}

// Cancel removes a flow before completion. Bytes already moved stay
// counted; the done callback does not run.
func (f *Flow) Cancel() {
	if !f.active {
		return
	}
	r := f.res
	r.advance()
	f.active = false
	f.endRate = r.totalRate * f.weight / r.totalW
	f.endRem = (f.tag - r.vsrv) * f.weight
	if f.endRem < 0 {
		f.endRem = 0
	}
	r.heapRemove(int(f.pos))
	r.totalW -= f.weight
	if len(r.heap) == 0 {
		r.resetIdle()
	}
	r.markDirty()
	if s := r.eng.flowSink; s != nil {
		s.FlowEnded(r, f, false)
	}
}

// advance accrues accounting up to the current instant: busy time, the
// virtual-service accumulator and aggregate bytes, all in O(1). Per-flow
// rates were constant since lastUpdate because every state change
// re-flushes within its own instant.
func (r *Resource) advance() {
	now := r.eng.Now()
	d := now.Sub(r.lastUpdate)
	if d <= 0 {
		r.lastUpdate = now
		return
	}
	if len(r.heap) > 0 {
		r.busy += d
		dt := d.Seconds()
		r.vsrv += r.vRate * dt
		r.bytesMoved += r.totalRate * dt
	}
	r.lastUpdate = now
}

// markDirty coalesces same-instant rebalances: the first state change at
// an instant schedules one flush event; later changes at the same
// instant ride along for free.
func (r *Resource) markDirty() {
	if r.dirty {
		return
	}
	r.dirty = true
	r.eng.At(r.eng.Now(), r.flushFn)
}

// flush recomputes the cached rates from the current membership and
// re-arms the single completion timer. It runs after every model event
// of the instant that dirtied the resource, so it sees the settled
// state.
func (r *Resource) flush() {
	r.dirty = false
	if r.timer != nil {
		r.eng.Cancel(r.timer)
		r.timer = nil
	}
	if len(r.heap) == 0 {
		return
	}
	r.reprice()
	if f := r.heap[0]; !math.IsInf(f.tag, 1) {
		r.timer = r.eng.Schedule(FloatDuration((f.tag-r.vsrv)/r.vRate*float64(Second)), r.timerFn)
	}
}

// reprice refreshes the cached aggregate rate and virtual-service rate
// from the current membership. Callers guarantee totalW > 0.
func (r *Resource) reprice() {
	r.totalRate = r.base * r.scale * r.eff(r.totalW)
	r.vRate = r.totalRate / r.totalW
}

// resetIdle zeroes the per-busy-period state once the last flow leaves,
// bounding float drift to one busy period.
func (r *Resource) resetIdle() {
	r.totalW = 0
	r.vsrv = 0
	r.vRate = 0
	r.totalRate = 0
}

// Second is one virtual second, for converting float seconds to Duration.
const Second = Duration(1e9)

// onTimer fires when the earliest-finishing flow reaches zero remaining
// bytes: it advances accounting and completes every ripe flow.
func (r *Resource) onTimer() {
	r.timer = nil
	r.advance()
	r.completeRipe()
}

// completeRipe completes, in (tag, admission) order, every flow whose
// remaining time at the current rates truncates to zero nanoseconds —
// the set whose per-flow completion events would fire at this instant
// under eager per-flow scheduling. Every ripeness test is preceded by a
// reprice, so it always sees the current membership: a same-instant
// event before the timer may have changed it with the recompute still
// pending in the flush event, each pop frees capacity that can ripen
// the next flow, and a done callback may admit a flow — onto a busy
// resource, or onto one the pop just left idle at zero rate.
func (r *Resource) completeRipe() {
	for len(r.heap) > 0 {
		r.reprice()
		f := r.heap[0]
		if math.IsInf(f.tag, 1) {
			break
		}
		secs := (f.tag - r.vsrv) / r.vRate
		if FloatDuration(secs*float64(Second)) > 0 {
			break
		}
		f.endRate = r.totalRate * f.weight / r.totalW
		// Guard against float drift: the timer fires when the virtual
		// accumulator ~ reaches the tag; credit any sub-nanosecond
		// leftover so completed bytes stay conserved.
		if left := (f.tag - r.vsrv) * f.weight; left > 0 {
			r.bytesMoved += left
		}
		f.active = false
		f.endRem = 0
		r.heapRemove(0)
		r.totalW -= f.weight
		if len(r.heap) == 0 {
			r.resetIdle()
		}
		if s := r.eng.flowSink; s != nil {
			s.FlowEnded(r, f, true)
		}
		if f.done != nil {
			f.done(f)
		}
		r.recycle(f)
	}
	if len(r.heap) > 0 {
		r.markDirty()
	}
}

// maxFreeFlows caps the per-resource pool of recycled Flow structs.
const maxFreeFlows = 1 << 12

// recycle returns a completed flow to the pool once its done callback
// has run. Only completions recycle (see the Flow handle contract);
// cancelled flows are left to the garbage collector.
func (r *Resource) recycle(f *Flow) {
	f.done = nil
	if len(r.free) < maxFreeFlows {
		r.free = append(r.free, f)
	}
}
