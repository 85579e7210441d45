package sim

// Differential proofs for the virtual-service-time Resource.
//
// Two references, two claims:
//
//  1. TestDifferentialResourceVsReference — byte-identical. The optimized
//     resource (finish-tag heap, O(1) accrual, coalesced flush) against
//     the test-only refResource (reference_test.go: admission-ordered
//     slice, linear scans) on the same seeded op scripts. The two share
//     every float expression — only the bookkeeping structure differs —
//     so completions, timestamps, BytesMoved and BusyTime must match
//     exactly, including under mid-run accounting probes that stress the
//     lazy O(1) accrual.
//
//  2. TestDifferentialResourceVsLegacy — semantically equivalent. The
//     preserved pre-rewrite implementation (legacyResource below: one
//     eagerly-cancelled completion event per flow, per-flow remaining
//     counters decremented every advance) is the old arithmetic; exact
//     bit-equality to it is unattainable once per-flow accrual is gone,
//     so this test bounds the drift instead: same completion sets, same
//     cancel behaviour, timestamps within nanoseconds, bytes within a
//     few KB over 90 virtual seconds.
//
// Weights and scales are powers of two so that incremental and re-summed
// weight totals are bit-identical (dyadic rationals add and subtract
// exactly in float64); any divergence is therefore a real behavioural
// difference, not float noise.

import (
	"math"
	"math/rand"
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
		f.ev = r.eng.Schedule(Duration(secs*float64(Second)), func() { r.complete(ff) })
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

// underTest adapts either implementation to the op script.
type underTest interface {
	start(size Bytes, weight float64, done func()) (cancel func())
	startLoad(weight float64) (cancel func())
	setScale(s float64)
	bytesMoved() Bytes
	busyTime() Duration
	activeFlows() int
}

type resourceUT struct{ r *Resource }

func (u resourceUT) start(size Bytes, weight float64, done func()) func() {
	f := u.r.StartWeighted(size, weight, func(*Flow) { done() })
	return f.Cancel
}
func (u resourceUT) startLoad(weight float64) func() { return u.r.StartLoad(weight).Cancel }
func (u resourceUT) setScale(s float64)              { u.r.SetScale(s) }
func (u resourceUT) bytesMoved() Bytes               { return u.r.BytesMoved() }
func (u resourceUT) busyTime() Duration              { return u.r.BusyTime() }
func (u resourceUT) activeFlows() int                { return u.r.ActiveFlows() }

type legacyUT struct{ r *legacyResource }

func (u legacyUT) start(size Bytes, weight float64, done func()) func() {
	return u.r.start(size, weight, done).cancel
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

type refUT struct{ r *refResource }

func (u refUT) start(size Bytes, weight float64, done func()) func() {
	return u.r.start(size, weight, done).cancel
}
func (u refUT) startLoad(weight float64) func() { return u.r.startLoad(weight).cancel }
func (u refUT) setScale(s float64)              { u.r.setScale(s) }
func (u refUT) bytesMoved() Bytes {
	b, _ := u.r.accrued()
	return b
}
func (u refUT) busyTime() Duration {
	_, d := u.r.accrued()
	return d
}
func (u refUT) activeFlows() int { return len(u.r.flows) }

const (
	opStart = iota
	opStartLoad
	opCancel
	opSetScale
)

type scriptOp struct {
	at     Time
	kind   int
	size   Bytes
	weight float64 // flow weight, or scale for opSetScale
	pick   int     // which active flow a cancel targets
}

// genScript builds a random op mix. Weights and scales are powers of two
// (see file comment); sizes are whole megabytes.
func genScript(rng *rand.Rand, n int, horizon Duration) []scriptOp {
	weights := []float64{0.25, 0.5, 1, 1, 2, 4}
	scales := []float64{0.25, 0.5, 1, 2}
	ops := make([]scriptOp, n)
	for i := range ops {
		o := scriptOp{at: Time(rng.Int63n(int64(horizon)))}
		switch k := rng.Intn(10); {
		case k < 5: // half the ops admit finite flows (incl. weight-1 Start)
			o.kind = opStart
			o.size = Bytes(1+rng.Intn(512)) * MB
			o.weight = weights[rng.Intn(len(weights))]
		case k < 6:
			o.kind = opStartLoad
			o.weight = weights[rng.Intn(len(weights))]
		case k < 9:
			o.kind = opCancel
			o.pick = rng.Intn(1 << 16)
		default:
			o.kind = opSetScale
			o.weight = scales[rng.Intn(len(scales))]
		}
		ops[i] = o
	}
	return ops
}

type completionRec struct {
	id int
	at Time
}

type scriptResult struct {
	completions []completionRec
	bytesMoved  Bytes
	busy        Duration
	stillActive int
}

// scheduleProbes sprinkles accounting reads over the horizon. Probes are
// where the lazy-accrual design earns its keep (each one advances the
// aggregate accumulators mid-interval), so the byte-identity test wants
// them between the ops.
func scheduleProbes(eng *Engine, r underTest, horizon Duration) {
	for at := Duration(13 * time.Millisecond); at < horizon; at += 7 * time.Second {
		eng.At(Time(at), func() {
			r.bytesMoved()
			r.busyTime()
		})
	}
}

// runScript replays the ops against one implementation. Flows are named
// by admission order, so both implementations agree on ids as long as
// they agree on completion behaviour — which is exactly what the caller
// asserts.
func runScript(eng *Engine, r underTest, ops []scriptOp) scriptResult {
	var res scriptResult
	var active []int
	cancels := map[int]func(){}
	nextID := 0
	admit := func(o scriptOp) {
		id := nextID
		nextID++
		var cancel func()
		if o.kind == opStartLoad {
			cancel = r.startLoad(o.weight)
		} else {
			cancel = r.start(o.size, o.weight, func() {
				res.completions = append(res.completions, completionRec{id, eng.Now()})
				for i, a := range active {
					if a == id {
						active = append(active[:i], active[i+1:]...)
						break
					}
				}
			})
		}
		cancels[id] = cancel
		active = append(active, id)
	}
	for _, o := range ops {
		o := o
		eng.At(o.at, func() {
			switch o.kind {
			case opStart, opStartLoad:
				admit(o)
			case opCancel:
				if len(active) == 0 {
					return
				}
				idx := o.pick % len(active)
				id := active[idx]
				active = append(active[:idx], active[idx+1:]...)
				cancels[id]()
			case opSetScale:
				r.setScale(o.weight)
			}
		})
	}
	eng.Run() // drains once every finite flow has completed or been cancelled
	res.bytesMoved = r.bytesMoved()
	res.busy = r.busyTime()
	res.stillActive = r.activeFlows()
	return res
}

const (
	diffSeeds   = 60
	diffOps     = 80
	diffHorizon = 90 * time.Second
)

// TestDifferentialResourceVsReference is the byte-identity proof: the
// finish-tag heap, flow pooling, O(1) lazy accrual and same-instant
// flush coalescing must not change a single bit of observable behaviour
// relative to the reference's linear bookkeeping, because the two share
// every arithmetic expression.
func TestDifferentialResourceVsReference(t *testing.T) {
	totalCompletions := 0
	for seed := int64(0); seed < diffSeeds; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), diffOps, diffHorizon)

		run := func(ut func(*Engine) underTest) scriptResult {
			eng := NewEngine(seed)
			u := ut(eng)
			scheduleProbes(eng, u, diffHorizon)
			return runScript(eng, u, ops)
		}
		opt := run(func(eng *Engine) underTest {
			return resourceUT{NewResource(eng, "r", 128*float64(MB), SeekEfficiency(0.25))}
		})
		ref := run(func(eng *Engine) underTest {
			return refUT{newRefResource(eng, 128*float64(MB), SeekEfficiency(0.25))}
		})

		if len(opt.completions) != len(ref.completions) {
			t.Fatalf("seed %d: %d completions vs reference %d", seed, len(opt.completions), len(ref.completions))
		}
		for i := range opt.completions {
			o, n := opt.completions[i], ref.completions[i]
			if o.id != n.id {
				t.Fatalf("seed %d: completion %d order diverged: flow %d vs reference flow %d", seed, i, o.id, n.id)
			}
			if o.at != n.at {
				t.Fatalf("seed %d: flow %d completed at %v vs reference %v (Δ %v)", seed, o.id, o.at, n.at, o.at.Sub(n.at))
			}
		}
		if opt.bytesMoved != ref.bytesMoved {
			t.Fatalf("seed %d: BytesMoved %d vs reference %d", seed, opt.bytesMoved, ref.bytesMoved)
		}
		if opt.busy != ref.busy {
			t.Fatalf("seed %d: BusyTime %v vs reference %v", seed, opt.busy, ref.busy)
		}
		if opt.stillActive != ref.stillActive {
			t.Fatalf("seed %d: %d active flows at drain vs reference %d", seed, opt.stillActive, ref.stillActive)
		}
		totalCompletions += len(opt.completions)
	}
	if totalCompletions == 0 {
		t.Fatal("scripts produced no completions; test exercised nothing")
	}
	t.Logf("compared %d completions across %d seeds", totalCompletions, diffSeeds)
}

// Drift bounds for the legacy comparison. The old per-flow accrual and
// the new aggregate accrual round differently at the last ulp, which can
// move a truncated-nanosecond completion by ±1ns; such a shift perturbs
// the service seen by the surviving flows by rate·1ns (~0.1 byte), so
// over a 90s script the divergence stays in single-digit nanoseconds and
// bytes. The bounds below leave an order of magnitude of headroom while
// still catching any real semantic change.
const (
	legacyTimeTol  = Duration(250)    // per-completion timestamp drift
	legacyBusyTol  = Duration(2000)   // cumulative busy-time drift
	legacyBytesTol = Bytes(64 * 1024) // cumulative BytesMoved drift
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
		ops := genScript(rand.New(rand.NewSource(seed)), diffOps, diffHorizon)

		engNew := NewEngine(seed)
		cur := runScript(engNew, resourceUT{NewResource(engNew, "r", 128*float64(MB), SeekEfficiency(0.25))}, ops)

		engLegacy := NewEngine(seed)
		legacy := runScript(engLegacy, legacyUT{newLegacyResource(engLegacy, 128*float64(MB), SeekEfficiency(0.25))}, ops)

		if len(cur.completions) != len(legacy.completions) {
			t.Fatalf("seed %d: %d completions vs legacy %d", seed, len(cur.completions), len(legacy.completions))
		}
		legacyAt := make(map[int]Time, len(legacy.completions))
		for _, c := range legacy.completions {
			legacyAt[c.id] = c.at
		}
		for _, c := range cur.completions {
			lat, ok := legacyAt[c.id]
			if !ok {
				t.Fatalf("seed %d: flow %d completed but legacy cancelled or kept it", seed, c.id)
			}
			if d := c.at.Sub(lat); d < -legacyTimeTol || d > legacyTimeTol {
				t.Fatalf("seed %d: flow %d completed at %v vs legacy %v (Δ %v)", seed, c.id, c.at, lat, d)
			}
		}
		if d := cur.bytesMoved - legacy.bytesMoved; d < -legacyBytesTol || d > legacyBytesTol {
			t.Fatalf("seed %d: BytesMoved %d vs legacy %d (Δ %d)", seed, cur.bytesMoved, legacy.bytesMoved, d)
		}
		if d := cur.busy - legacy.busy; d < -legacyBusyTol || d > legacyBusyTol {
			t.Fatalf("seed %d: BusyTime %v vs legacy %v (Δ %v)", seed, cur.busy, legacy.busy, d)
		}
		if cur.stillActive != legacy.stillActive {
			t.Fatalf("seed %d: %d active flows at drain vs legacy %d", seed, cur.stillActive, legacy.stillActive)
		}
		totalCompletions += len(cur.completions)
	}
	if totalCompletions == 0 {
		t.Fatal("scripts produced no completions; test exercised nothing")
	}
	t.Logf("compared %d completions across %d seeds", totalCompletions, diffSeeds)
}
