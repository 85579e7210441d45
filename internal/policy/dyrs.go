package policy

import "dyrs/internal/cluster"

// DYRS is the paper's Algorithm 1: greedy earliest-finish replica
// selection. Each node's finish time is initialized from the latest
// heartbeat state to migTime × (numQueued+1); each block (in pending
// order) targets the replica location whose finish time plus this
// block's own migration time is lowest, and the chosen node's running
// finish time advances by the block — so a convoy of blocks spreads
// across replicas in proportion to their measured speed (§III-A2).
//
// The golden corpus in internal/harness pins the resulting traces,
// stats and counters across 72 scenarios.
type DYRS struct {
	// Reusable per-pass state, indexed by dense NodeID.
	finish  []float64
	perByte []float64
	valid   []bool
}

// NewDYRS returns the DYRS earliest-finish policy.
func NewDYRS() *DYRS { return &DYRS{} }

// Name implements Policy.
func (p *DYRS) Name() string { return "DYRS" }

// BindImmediately implements Policy: DYRS delays binding until pull.
func (p *DYRS) BindImmediately() bool { return false }

// Begin initializes the per-node finish-time estimates from the view.
func (p *DYRS) Begin(v View) {
	n := len(v.Nodes)
	if len(p.finish) < n {
		p.finish = make([]float64, n)
		p.perByte = make([]float64, n)
		p.valid = make([]bool, n)
	}
	std := float64(v.StdBlock)
	for i, nv := range v.Nodes {
		if !nv.Alive {
			p.valid[i] = false
			continue
		}
		p.perByte[i] = nv.PerByte
		p.finish[i] = nv.PerByte * std * float64(nv.Queued+1)
		p.valid[i] = true
	}
}

// Assign picks the replica with the lowest new completion time and
// advances its running finish estimate. Ties break on the first
// replica in Request order (strict <).
func (p *DYRS) Assign(req Request) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestFinish := 0.0
	size := float64(req.Size)
	for _, loc := range req.Replicas {
		if !p.valid[int(loc)] {
			continue
		}
		f := p.finish[int(loc)] + p.perByte[int(loc)]*size
		if best < 0 || f < bestFinish {
			best = loc
			bestFinish = f
		}
	}
	if best < 0 {
		return -1, false
	}
	p.finish[int(best)] = bestFinish
	return best, true
}
