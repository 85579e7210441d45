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
// A node's finish time is initialized the first time a pass reads it
// (perPass), from the same expression, so every float is the one an
// initialization of every node at Begin gives.
//
// The golden corpus in internal/harness pins the resulting traces,
// stats and counters across 72 scenarios.
type DYRS struct {
	nodes []NodeView
	std   float64
	// finish holds the running finish times of the nodes the pass has
	// touched, indexed by dense NodeID.
	finish perPass[float64]
}

// NewDYRS returns the DYRS earliest-finish policy.
func NewDYRS() *DYRS { return &DYRS{} }

// Name implements Policy.
func (p *DYRS) Name() string { return "DYRS" }

// BindImmediately implements Policy: DYRS delays binding until pull.
func (p *DYRS) BindImmediately() bool { return false }

// Begin starts a pass over the view.
func (p *DYRS) Begin(v View) {
	p.nodes, p.std = v.Nodes, float64(v.StdBlock)
	p.finish.begin(len(v.Nodes))
}

// Assign picks the replica with the lowest new completion time and
// advances its running finish estimate. Ties break on the first
// replica in Request order (strict <).
func (p *DYRS) Assign(req Request) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	var bestFinish *float64
	f := 0.0
	size := float64(req.Size)
	for _, loc := range req.Replicas {
		nv := &p.nodes[int(loc)]
		if !nv.Alive {
			continue
		}
		finish, fresh := p.finish.at(int(loc))
		if fresh {
			*finish = nv.PerByte * p.std * float64(nv.Queued+1)
		}
		if g := *finish + nv.PerByte*size; best < 0 || g < f {
			best, bestFinish, f = loc, finish, g
		}
	}
	if best < 0 {
		return -1, false
	}
	*bestFinish = f
	return best, true
}

// perPass is a policy's per-node state for one pass, indexed by dense
// NodeID. A node's value is initialized the first time the pass touches
// it, not for every node at Begin, so a pass costs O(replicas read),
// not O(cluster). begin is O(1): it advances a generation, and clears
// the stamps only when the generation wraps.
type perPass[T any] struct {
	cells []passCell[T]
	gen   uint32
}

// passCell is one node's value and the generation that last set it.
type passCell[T any] struct {
	v   T
	gen uint32
}

// begin starts a pass over n nodes.
func (s *perPass[T]) begin(n int) {
	if len(s.cells) < n {
		s.cells = make([]passCell[T], n)
	}
	if s.gen++; s.gen == 0 {
		clear(s.cells)
		s.gen = 1
	}
}

// at returns node i's value, and whether this is the pass's first touch
// of it, in which case the caller initializes the value.
func (s *perPass[T]) at(i int) (v *T, fresh bool) {
	c := &s.cells[i]
	if c.gen == s.gen {
		return &c.v, false
	}
	c.gen = s.gen
	return &c.v, true
}
