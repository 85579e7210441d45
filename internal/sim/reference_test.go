package sim

import "math"

// refResource is the structurally naive reference for Resource: the same
// virtual-service-time model with every float expression copied from
// resource.go, kept over an admission-ordered slice with linear scans
// instead of the finish-tag heap, with no flow pooling and no flow sink.
// Only the bookkeeping differs, so the two must agree bit for bit;
// TestDifferentialResourceVsReference and FuzzResourceModel drive them
// in lockstep.
type refResource struct {
	eng   *Engine
	base  float64
	scale float64
	eff   EfficiencyFunc

	vsrv      float64
	vRate     float64
	totalRate float64
	totalW    float64
	admitSeq  uint64

	flows []*refFlow // active flows, admission order

	lastUpdate Time
	timer      *Event
	dirty      bool

	bytesMoved float64
	busy       Duration
}

type refFlow struct {
	res    *refResource
	tag    float64 // +Inf for persistent loads
	weight float64
	done   func()
	active bool
}

func newRefResource(eng *Engine, capacity float64, eff EfficiencyFunc) *refResource {
	return &refResource{eng: eng, base: capacity, scale: 1, eff: eff}
}

func (r *refResource) start(size Bytes, weight float64, done func()) *refFlow {
	r.advance()
	return r.admit(r.vsrv+float64(size)/weight, weight, done)
}

func (r *refResource) startLoad(weight float64) *refFlow {
	r.advance()
	return r.admit(math.Inf(1), weight, nil)
}

func (r *refResource) admit(tag, weight float64, done func()) *refFlow {
	f := &refFlow{res: r, tag: tag, weight: weight, done: done, active: true}
	r.flows = append(r.flows, f)
	r.totalW += weight
	r.markDirty()
	return f
}

func (f *refFlow) cancel() {
	if !f.active {
		return
	}
	r := f.res
	r.advance()
	f.active = false
	r.remove(f)
	r.totalW -= f.weight
	if len(r.flows) == 0 {
		r.resetIdle()
	}
	r.markDirty()
}

func (r *refResource) setScale(s float64) {
	r.advance()
	r.scale = s
	r.markDirty()
}

func (r *refResource) remove(f *refFlow) {
	for i, g := range r.flows {
		if g == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			return
		}
	}
}

// earliest scans for the finite flow with the smallest tag. The strict <
// over an admission-ordered slice gives equal tags to the earlier
// admission, the order the heap keeps with its seq tie-break.
func (r *refResource) earliest() *refFlow {
	var best *refFlow
	for _, f := range r.flows {
		if !math.IsInf(f.tag, 1) && (best == nil || f.tag < best.tag) {
			best = f
		}
	}
	return best
}

func (r *refResource) advance() {
	now := r.eng.Now()
	d := now.Sub(r.lastUpdate)
	if d <= 0 {
		r.lastUpdate = now
		return
	}
	if len(r.flows) > 0 {
		r.busy += d
		dt := d.Seconds()
		r.vsrv += r.vRate * dt
		r.bytesMoved += r.totalRate * dt
	}
	r.lastUpdate = now
}

func (r *refResource) markDirty() {
	if r.dirty {
		return
	}
	r.dirty = true
	r.eng.At(r.eng.Now(), r.flush)
}

func (r *refResource) flush() {
	r.dirty = false
	if r.timer != nil {
		r.eng.Cancel(r.timer)
		r.timer = nil
	}
	if len(r.flows) == 0 {
		return
	}
	r.reprice()
	if f := r.earliest(); f != nil {
		r.timer = r.eng.Schedule(Duration((f.tag-r.vsrv)/r.vRate*float64(Second)), r.onTimer)
	}
}

func (r *refResource) reprice() {
	r.totalRate = r.base * r.scale * r.eff(r.totalW)
	r.vRate = r.totalRate / r.totalW
}

func (r *refResource) resetIdle() {
	r.totalW = 0
	r.vsrv = 0
	r.vRate = 0
	r.totalRate = 0
}

func (r *refResource) onTimer() {
	r.timer = nil
	r.advance()
	r.completeRipe()
}

func (r *refResource) completeRipe() {
	for len(r.flows) > 0 {
		r.reprice()
		f := r.earliest()
		if f == nil {
			break
		}
		secs := (f.tag - r.vsrv) / r.vRate
		if Duration(secs*float64(Second)) > 0 {
			break
		}
		if left := (f.tag - r.vsrv) * f.weight; left > 0 {
			r.bytesMoved += left
		}
		f.active = false
		r.remove(f)
		r.totalW -= f.weight
		if len(r.flows) == 0 {
			r.resetIdle()
		}
		if f.done != nil {
			f.done()
		}
	}
	if len(r.flows) > 0 {
		r.markDirty()
	}
}

// accrued reports BytesMoved and BusyTime as of the current instant.
func (r *refResource) accrued() (Bytes, Duration) {
	r.advance()
	return Bytes(r.bytesMoved), r.busy
}
