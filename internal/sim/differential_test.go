package sim

// Differential proof for the virtual-service-time Resource against an
// independent reference: legacyResource below, the pre-rewrite
// implementation (one eagerly-cancelled completion event per flow,
// per-flow remaining counters decremented every advance). Its
// arithmetic is not the Resource's — no virtual-service accumulator, no
// finish tags — so a shared float mistake cannot hide in both. Exact
// bit-equality is unattainable once per-flow accrual is gone, so
// TestDifferentialResourceVsLegacy and FuzzResourceModel bound the
// drift instead: same completion sets, same cancel behaviour,
// timestamps within nanoseconds, bytes within a few KB, including under
// mid-run accounting probes that stress the lazy O(1) accrual.
//
// Weights and scales are powers of two so that incremental and re-summed
// weight totals are bit-identical (dyadic rationals add and subtract
// exactly in float64); any divergence is therefore a real behavioural
// difference, not float noise.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// --- legacy reference implementation (per-flow events, eager cancel,
// --- per-flow remaining counters: the design the rewrite replaced) ---

type legacyFlow struct {
	res       *legacyResource
	remaining float64
	weight    float64
	rate      float64
	done      func()
	ev        *Event
	active    bool
}

type legacyResource struct {
	eng        *Engine
	base       float64
	scale      float64
	eff        EfficiencyFunc
	flows      []*legacyFlow
	lastUpdate Time
	bytesMoved float64
	busy       Duration
}

func newLegacyResource(eng *Engine, capacity float64, eff EfficiencyFunc) *legacyResource {
	return &legacyResource{eng: eng, base: capacity, scale: 1, eff: eff}
}

func (r *legacyResource) totalWeight() float64 {
	var w float64
	for _, f := range r.flows {
		w += f.weight
	}
	return w
}

func (r *legacyResource) start(size Bytes, weight float64, done func()) *legacyFlow {
	r.advance()
	f := &legacyFlow{res: r, remaining: float64(size), weight: weight, done: done, active: true}
	r.flows = append(r.flows, f)
	r.rebalance()
	return f
}

func (r *legacyResource) startLoad(weight float64) *legacyFlow {
	r.advance()
	f := &legacyFlow{res: r, remaining: math.Inf(1), weight: weight, active: true}
	r.flows = append(r.flows, f)
	r.rebalance()
	return f
}

func (f *legacyFlow) cancel() {
	if !f.active {
		return
	}
	r := f.res
	r.advance()
	f.active = false
	if f.ev != nil {
		r.eng.Cancel(f.ev)
		f.ev = nil
	}
	r.remove(f)
	r.rebalance()
}

func (r *legacyResource) setScale(s float64) {
	r.advance()
	r.scale = s
	r.rebalance()
}

func (r *legacyResource) remove(f *legacyFlow) {
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			return
		}
	}
}

func (r *legacyResource) advance() {
	now := r.eng.Now()
	dt := now.Sub(r.lastUpdate).Seconds()
	if dt <= 0 {
		r.lastUpdate = now
		return
	}
	if len(r.flows) > 0 {
		r.busy += now.Sub(r.lastUpdate)
	}
	for _, f := range r.flows {
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		if !math.IsInf(f.remaining, 1) {
			r.bytesMoved += moved
		} else {
			r.bytesMoved += f.rate * dt
		}
	}
	r.lastUpdate = now
}

// rebalance cancels and reschedules one completion event per finite flow,
// every time — the O(flows · log events) pattern the rewrite replaced.
func (r *legacyResource) rebalance() {
	if len(r.flows) == 0 {
		return
	}
	totalWeight := r.totalWeight()
	totalRate := r.base * r.scale * r.eff(totalWeight)
	for _, f := range r.flows {
		f.rate = totalRate * f.weight / totalWeight
		if f.ev != nil {
			r.eng.Cancel(f.ev)
			f.ev = nil
		}
		if math.IsInf(f.remaining, 1) {
			continue
		}
		secs := f.remaining / f.rate
		ff := f
		f.ev = r.eng.Schedule(FloatDuration(secs*float64(Second)), func() { r.complete(ff) })
	}
}

func (r *legacyResource) complete(f *legacyFlow) {
	r.advance()
	if f.remaining > 0 {
		r.bytesMoved += f.remaining
		f.remaining = 0
	}
	f.active = false
	f.ev = nil
	r.remove(f)
	r.rebalance()
	if f.done != nil {
		f.done()
	}
}

// --- common harness ---

// underTest adapts either implementation to the op script. A finite
// flow's done callback receives the rate the flow ended at.
type underTest interface {
	start(size Bytes, weight float64, done func(rate float64)) (cancel func())
	startLoad(weight float64) (cancel func())
	setScale(s float64)
	bytesMoved() Bytes
	busyTime() Duration
	activeFlows() int
}

type resourceUT struct{ r *Resource }

func (u resourceUT) start(size Bytes, weight float64, done func(float64)) func() {
	f := u.r.StartWeighted(size, weight, func(f *Flow) { done(f.rate()) })
	return f.Cancel
}
func (u resourceUT) startLoad(weight float64) func() { return u.r.StartLoad(weight).Cancel }
func (u resourceUT) setScale(s float64)              { u.r.SetScale(s) }
func (u resourceUT) bytesMoved() Bytes               { return u.r.BytesMoved() }
func (u resourceUT) busyTime() Duration              { return u.r.BusyTime() }
func (u resourceUT) activeFlows() int                { return u.r.ActiveFlows() }

type legacyUT struct{ r *legacyResource }

func (u legacyUT) start(size Bytes, weight float64, done func(float64)) func() {
	var f *legacyFlow
	f = u.r.start(size, weight, func() { done(f.rate) })
	return f.cancel
}
func (u legacyUT) startLoad(weight float64) func() { return u.r.startLoad(weight).cancel }
func (u legacyUT) setScale(s float64)              { u.r.setScale(s) }
func (u legacyUT) bytesMoved() Bytes {
	u.r.advance()
	return Bytes(u.r.bytesMoved)
}
func (u legacyUT) busyTime() Duration {
	u.r.advance()
	return u.r.busy
}
func (u legacyUT) activeFlows() int { return len(u.r.flows) }

const (
	opStart = iota
	opStartLoad
	opCancel
	opRecancel
	opSetScale
	opChain
	opProbe
)

type scriptOp struct {
	at     Time
	kind   int
	size   Bytes
	weight float64 // flow weight, or scale for opSetScale
	pick   int     // which flow a cancel or re-cancel targets
	chain  int     // opChain: flows started one by one from done callbacks
}

// genScript builds a random op mix in time order. Weights and scales
// are powers of two (see file comment); sizes are whole megabytes. An
// opChain admits a finite flow whose done callback admits the next one,
// up to chain follow-ups, the way a serialized slave chains its
// migrations.
func genScript(rng *rand.Rand, n int, horizon Duration) []scriptOp {
	weights := []float64{0.25, 0.5, 1, 1, 2, 4}
	scales := []float64{0.25, 0.5, 1, 2}
	ops := make([]scriptOp, n)
	for i := range ops {
		o := scriptOp{at: Time(rng.Int63n(int64(horizon)))}
		switch k := rng.Intn(12); {
		case k < 5: // most ops admit finite flows (incl. weight-1 Start)
			o.kind = opStart
			o.size = Bytes(1+rng.Intn(512)) * MB
			o.weight = weights[rng.Intn(len(weights))]
		case k < 6:
			o.kind = opStartLoad
			o.weight = weights[rng.Intn(len(weights))]
		case k < 9:
			o.kind = opCancel
			o.pick = rng.Intn(1 << 16)
		case k < 10:
			o.kind = opSetScale
			o.weight = scales[rng.Intn(len(scales))]
		default:
			o.kind = opChain
			o.size = Bytes(1+rng.Intn(512)) * MB
			o.weight = weights[rng.Intn(len(weights))]
			o.chain = 1 + rng.Intn(3)
		}
		ops[i] = o
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// Drift bounds for the legacy comparison. The old per-flow accrual and
// the new aggregate accrual round differently at the last ulp, which can
// move a truncated-nanosecond completion by ±1ns; such a shift perturbs
// the service seen by the surviving flows by rate·1ns (~0.1 byte), so
// over a 90s script the divergence stays in single-digit nanoseconds and
// bytes. The bounds below leave an order of magnitude of headroom while
// still catching any real semantic change, and runLockstep widens them
// with the run.
const (
	legacyTimeTol  = Duration(250)    // per-completion timestamp drift
	legacyBusyTol  = Duration(2000)   // cumulative busy-time drift
	legacyBytesTol = Bytes(64 * 1024) // cumulative BytesMoved drift
)

// diffCapacity is the nominal capacity both sides run at.
const diffCapacity = 128 * float64(MB)

// runLockstep replays ops, in time order, on a Resource and a
// legacyResource side by side, then drains both for an hour. It fails t
// unless:
//
//   - the same flows complete, each within a time bound of the other
//     side, and flows admitted and ending together end in admission
//     order. A flow one side completes and the other cancels agrees only
//     when the completion lies within that bound of the cancel;
//   - BytesMoved and BusyTime agree within bounds after every op (each
//     read is also a mid-flight accounting probe) and after the drain;
//   - the same number of flows is still active at the end.
//
// The bounds grow with the run from one fact: a completion the two sides
// time Δ apart moves a busy period's edge by Δ, and shifts up to
// maxRate·Δ bytes of service between the flows still running. So each
// completion widens legacyBusyTol by legacyTimeTol for each of the two
// period edges it can shift (its own end, and the start of a follow-up
// it admits), and legacyBytesTol by maxRate times those two spans. A
// later flow makes up the service the earlier completions' measured Δs
// shifted at its own end rate, so its time bound is legacyTimeTol plus
// that shift over that rate: a flow starved by persistent loads turns a
// fraction of a byte into microseconds.
//
// The program picks cancel targets from the flows the Resource still
// runs. It returns the number of flows that completed on the Resource.
func runLockstep(t *testing.T, ops []scriptOp) int {
	const never = Time(-1)
	maxRate := diffCapacity * 2 // the largest scale the ops set
	engs := [2]*Engine{NewEngine(1), NewEngine(1)}
	sides := [2]underTest{
		resourceUT{NewResource(engs[0], "r", diffCapacity, SeekEfficiency(0.25))},
		legacyUT{newLegacyResource(engs[1], diffCapacity, SeekEfficiency(0.25))},
	}

	// One record per flow id, shared by both sides.
	type flowRec struct {
		size     Bytes // 0 for a persistent load
		weight   float64
		chain    int  // follow-ups still to admit from done callbacks
		child    int  // id of the follow-up, -1 until a side admits it
		startAt  Time // admission on the Resource side
		cancelAt Time
		cancel   [2]func()
		endAt    [2]Time    // completion instant per side
		endRate  [2]float64 // rate at completion per side
		endSeq   [2]int     // completion order per side
	}
	var recs []*flowRec
	var live []int
	var ends [2]int // completions per side
	dropLive := func(id int) {
		if i := slices.Index(live, id); i >= 0 {
			live = slices.Delete(live, i, i+1)
		}
	}
	newRec := func(o scriptOp) int {
		recs = append(recs, &flowRec{size: o.size, weight: o.weight, chain: o.chain, child: -1,
			cancelAt: never, endAt: [2]Time{never, never}})
		return len(recs) - 1
	}
	var admit func(id, s int)
	admit = func(id, s int) {
		r := recs[id]
		if s == 0 {
			live, r.startAt = append(live, id), engs[0].Now()
		}
		if r.size == 0 {
			r.cancel[s] = sides[s].startLoad(r.weight)
			return
		}
		r.cancel[s] = sides[s].start(r.size, r.weight, func(rate float64) {
			r.endAt[s], r.endRate[s], r.endSeq[s] = engs[s].Now(), rate, ends[s]
			ends[s]++
			if s == 0 {
				dropLive(id)
			}
			if r.chain == 0 {
				return
			}
			if r.child < 0 {
				r.child = newRec(scriptOp{size: r.size, weight: r.weight, chain: r.chain - 1})
			}
			if recs[r.child].cancelAt == never {
				admit(r.child, s)
			}
		})
	}
	// endCancelled cancels a flow on every side that has not completed
	// it; a completed Resource flow's pooled handle may be reused.
	endCancelled := func(r *flowRec) {
		for s := range sides {
			if r.cancel[s] != nil && r.endAt[s] == never {
				r.cancel[s]()
			}
		}
	}
	// cancelFlow ends a flow and any follow-up an early side admitted.
	var cancelFlow func(id int, at Time)
	cancelFlow = func(id int, at Time) {
		r := recs[id]
		r.cancelAt = at
		endCancelled(r)
		if r.child >= 0 && recs[r.child].cancelAt == never {
			cancelFlow(r.child, at)
		}
	}
	check := func(op int) { // op len(ops) is the drain
		t.Helper()
		busyTol := legacyBusyTol + Duration(2*ends[0])*legacyTimeTol
		bytesTol := legacyBytesTol + Bytes(float64(2*ends[0])*maxRate*legacyTimeTol.Seconds())
		if b, l := sides[0].bytesMoved(), sides[1].bytesMoved(); b-l < -bytesTol || b-l > bytesTol {
			t.Fatalf("op %d: BytesMoved %d vs legacy %d (Δ %d, bound %d)", op, b, l, b-l, bytesTol)
		}
		if b, l := sides[0].busyTime(), sides[1].busyTime(); b-l < -busyTol || b-l > busyTol {
			t.Fatalf("op %d: BusyTime %v vs legacy %v (Δ %v, bound %v)", op, b, l, b-l, busyTol)
		}
	}

	for i, o := range ops {
		for _, e := range engs {
			e.RunUntil(o.at)
		}
		switch o.kind {
		case opStart, opStartLoad, opChain:
			id := newRec(o)
			admit(id, 0)
			admit(id, 1)
		case opCancel:
			if len(live) > 0 {
				id := live[o.pick%len(live)]
				dropLive(id)
				cancelFlow(id, o.at)
			}
		case opRecancel:
			if len(recs) > 0 && recs[o.pick%len(recs)].cancelAt != never {
				endCancelled(recs[o.pick%len(recs)])
			}
		case opSetScale:
			for _, u := range sides {
				u.setScale(o.weight)
			}
		}
		check(i)
	}
	for _, e := range engs {
		e.RunFor(time.Hour)
	}
	check(len(ops))
	if g, w := sides[0].activeFlows(), sides[1].activeFlows(); g != w {
		t.Fatalf("%d active flows at drain vs legacy %d", g, w)
	}

	// Walk the completions in time order, accumulating the service each
	// one shifted onto the flows after it.
	var ended []int
	for id, r := range recs {
		if r.endAt[0] != never || r.endAt[1] != never {
			ended = append(ended, id)
		}
	}
	last := func(id int) Time { return max(recs[id].endAt[0], recs[id].endAt[1]) }
	sort.SliceStable(ended, func(i, j int) bool { return last(ended[i]) < last(ended[j]) })
	shifted := 0.0 // bytes of service moved between survivors so far
	for _, id := range ended {
		r := recs[id]
		o, l := r.endAt[0], r.endAt[1]
		d, rate := o.Sub(l), min(r.endRate[0], r.endRate[1])
		switch {
		case o != never && l != never:
		case r.cancelAt == never:
			t.Fatalf("flow %d completed on one side only (Resource %v, legacy %v)", id, o, l)
		default: // completed on one side, cancelled on the other
			d, rate = r.cancelAt.Sub(max(o, l)), max(r.endRate[0], r.endRate[1])
		}
		if tol := legacyTimeTol + FloatDuration(shifted/rate*float64(Second)); d < -tol || d > tol {
			t.Fatalf("flow %d ended at %v vs legacy %v, cancelled at %v (Δ %v, bound %v)", id, o, l, r.cancelAt, d, tol)
		}
		shifted += maxRate * d.Abs().Seconds()
	}

	// Flows admitted together that end together on each side tie on
	// their finish tags (the sizes and dyadic weights here keep unequal
	// tags apart by far more than a nanosecond of service), and ties
	// break by admission, as legacy same-instant completion events fire
	// in scheduling order.
	sort.SliceStable(ended, func(i, j int) bool { return recs[ended[i]].endSeq[0] < recs[ended[j]].endSeq[0] })
	lastSeq := map[[3]Time]int{} // legacy order of the latest flow per (admission, end, end)
	for _, id := range ended {
		r := recs[id]
		if r.endAt[0] == never || r.endAt[1] == never {
			continue
		}
		k := [3]Time{r.startAt, r.endAt[0], r.endAt[1]}
		if prev, ok := lastSeq[k]; ok && prev > r.endSeq[1] {
			t.Fatalf("flow %d ends at %v and legacy %v out of admission order", id, r.endAt[0], r.endAt[1])
		}
		lastSeq[k] = r.endSeq[1]
	}
	return ends[0]
}

const (
	diffSeeds   = 60
	diffOps     = 80
	diffHorizon = 90 * time.Second
)

// TestDifferentialResourceVsLegacy pins the rewrite to the preserved
// pre-virtual-time implementation: identical completion sets and cancel
// behaviour, with float drift bounded tightly enough that the model's
// semantics are unchanged for every consumer (timestamps are int64
// nanoseconds; a shift of a few ns over 90s is far below the model's
// resolution anywhere it feeds back into the simulation).
func TestDifferentialResourceVsLegacy(t *testing.T) {
	totalCompletions := 0
	for seed := int64(0); seed < diffSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			totalCompletions += runLockstep(t, genScript(rand.New(rand.NewSource(seed)), diffOps, diffHorizon))
		})
	}
	if totalCompletions == 0 {
		t.Fatal("scripts produced no completions; test exercised nothing")
	}
	t.Logf("compared %d completions across %d seeds", totalCompletions, diffSeeds)
}
