package sim

import (
	"testing"
	"time"
)

// FuzzResourceModel drives the optimized fair-share resource and the
// test-only refResource (reference_test.go) in lockstep through a byte-program of admissions, weighted admissions,
// persistent loads, cancellations, capacity changes, clock advances and
// accounting probes — and demands bit-identical observables after every
// op: completion log (ids and timestamps), BytesMoved, BusyTime and the
// active flow count. The two implementations share their float
// arithmetic, so any divergence is a structural bug in the finish-tag
// heap, the flush coalescing, the completion cascade or the flow pool.
//
// Weights and scales are dyadic so the incremental weight total is exact;
// sizes are arbitrary multiples of 128KB (bit-identity does not depend on
// "nice" sizes, only the weight algebra does).
func FuzzResourceModel(f *testing.F) {
	f.Add([]byte{})
	// Admit, run to completion, admit again (pool reuse on the second).
	f.Add([]byte{0, 10, 5, 200, 0, 11, 5, 200})
	// Burst of same-instant admissions, then a cancel storm.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 0, 1, 4, 3, 0, 3, 0, 5, 60, 3, 0})
	// Scale churn around persistent loads with sub-ms advances.
	f.Add([]byte{2, 1, 7, 3, 6, 9, 0, 7, 6, 50, 7, 1, 5, 100, 3, 1})
	// Same-instant admissions with equal tags complete in admission order.
	f.Add([]byte{0, 1, 0, 1, 1, 1, 5, 200})

	f.Fuzz(func(t *testing.T, data []byte) {
		engO := NewEngine(7)
		engR := NewEngine(7)
		rO := NewResource(engO, "opt", 96*float64(MB), SeekEfficiency(0.2))
		rR := newRefResource(engR, 96*float64(MB), SeekEfficiency(0.2))

		type rec struct {
			id int
			at Time
		}
		var doneO, doneR []rec
		var handlesO []*Flow
		var handlesR []*refFlow
		var live []int // ids both sides believe active, admission-ordered

		dropLive := func(id int) {
			for i, l := range live {
				if l == id {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		weights := [...]float64{0.25, 0.5, 1, 2, 4}
		scales := [...]float64{0.25, 0.5, 1, 2}
		admit := func(size Bytes, w float64) {
			id := len(handlesO)
			var fo *Flow
			var fr *refFlow
			if size > 0 {
				fo = rO.StartWeighted(size, w, func(*Flow) {
					doneO = append(doneO, rec{id, engO.Now()})
					dropLive(id)
				})
				fr = rR.start(size, w, func() {
					doneR = append(doneR, rec{id, engR.Now()})
				})
			} else {
				fo, fr = rO.StartLoad(w), rR.startLoad(w)
			}
			handlesO, handlesR = append(handlesO, fo), append(handlesR, fr)
			live = append(live, id)
		}

		check := func(op int) {
			moved, busy := rR.accrued()
			if g := rO.BytesMoved(); g != moved {
				t.Fatalf("op %d: BytesMoved %d vs reference %d", op, g, moved)
			}
			if g := rO.BusyTime(); g != busy {
				t.Fatalf("op %d: BusyTime %v vs reference %v", op, g, busy)
			}
			if g, w := rO.ActiveFlows(), len(rR.flows); g != w {
				t.Fatalf("op %d: ActiveFlows %d vs reference %d", op, g, w)
			}
			if len(doneO) != len(doneR) {
				t.Fatalf("op %d: %d completions vs reference %d", op, len(doneO), len(doneR))
			}
			for i := range doneO {
				if doneO[i] != doneR[i] {
					t.Fatalf("op %d: completion %d: flow %d at %v vs reference flow %d at %v",
						op, i, doneO[i].id, doneO[i].at, doneR[i].id, doneR[i].at)
				}
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 8 {
			case 0, 1: // finite admission, dyadic weight
				admit(Bytes(1+arg)*128*KB, weights[arg%len(weights)])
			case 2: // persistent load
				admit(0, weights[arg%len(weights)])
			case 3: // cancel a live flow (both sides, same id)
				if len(live) > 0 {
					id := live[arg%len(live)]
					dropLive(id)
					handlesO[id].Cancel()
					handlesR[id].cancel()
				}
			case 4: // double-cancel / stale-cancel hardening on a cancelled flow
				if len(handlesO) > 0 {
					id := arg % len(handlesO)
					stillLive := false
					for _, l := range live {
						if l == id {
							stillLive = true
						}
					}
					// Only re-cancel flows that ended by cancellation: a
					// completed flow's handle is pooled and may already be a
					// different admission (the documented Event-like
					// contract), so the model itself must not poke it.
					if !stillLive && !handlesO[id].Active() && handlesO[id].Size() == 0 {
						handlesO[id].Cancel()
						handlesR[id].cancel()
					}
				}
			case 5: // coarse clock advance
				d := Duration(arg) * time.Millisecond
				engO.RunFor(d)
				engR.RunFor(d)
			case 6: // fine clock advance (sub-ms, splits accrual intervals)
				d := Duration(arg) * 37 * time.Microsecond
				engO.RunFor(d)
				engR.RunFor(d)
			case 7: // capacity change
				s := scales[arg%len(scales)]
				rO.SetScale(s)
				rR.setScale(s)
			}
			check(i)
		}

		// Drain: every finite flow completes, persistent loads keep the
		// resource busy; then compare the full history one last time.
		engO.RunFor(time.Hour)
		engR.RunFor(time.Hour)
		check(len(data))
		for _, id := range live {
			if handlesO[id].Active() != handlesR[id].active {
				t.Fatalf("flow %d: Active %v vs reference %v", id, handlesO[id].Active(), handlesR[id].active)
			}
		}
	})
}
