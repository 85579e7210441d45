package sim

import (
	"testing"
	"time"
)

// FuzzResourceModel runs runLockstep (differential_test.go) — the
// Resource against legacyResource, whose arithmetic it does not share —
// on a byte-program of admissions, weighted admissions, persistent
// loads, cancellations, stale re-cancellations, capacity changes, clock
// advances (each one also an accounting probe) and chains: a flow whose
// done callback admits its follow-up, the way a serialized slave chains
// its migrations. Weights and scales are dyadic so the incremental
// weight total is exact; sizes are arbitrary multiples of 128KB.
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
	// Chains: a lone chain restarts the resource it just left idle from
	// its done callback; beside a longer flow, each follow-up joins a busy
	// resource whose rates the completion just changed.
	f.Add([]byte{8, 2, 5, 250, 5, 250, 0, 40, 8, 5, 5, 250, 5, 250, 5, 250})

	kinds := [...]int{opStart, opStart, opStartLoad, opCancel, opRecancel, opProbe, opProbe, opSetScale, opChain}
	weights := [...]float64{0.25, 0.5, 1, 2, 4}
	scales := [...]float64{0.25, 0.5, 1, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []scriptOp
		var at Time
		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			o := scriptOp{kind: kinds[data[i]%9], size: Bytes(1+arg) * 128 * KB, weight: weights[arg%len(weights)], pick: arg}
			switch o.kind {
			case opProbe: // clock advance: coarse, or sub-ms to split accrual intervals
				step := time.Millisecond
				if data[i]%9 == 6 {
					step = 37 * time.Microsecond
				}
				at = at.Add(Duration(arg) * step)
			case opSetScale:
				o.weight = scales[arg%len(scales)]
			case opChain: // 1–3 follow-ups
				o.chain = 1 + arg%3
			}
			o.at = at
			ops = append(ops, o)
		}
		runLockstep(t, ops)
	})
}
