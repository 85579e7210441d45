package policy

import (
	"math/rand"

	"dyrs/internal/cluster"
)

// Ignem implements the Ignem comparison scheme [8]: every block binds
// immediately to a uniformly random live replica. No pending list, no
// feedback, no adaptation — which is exactly why it collapses under
// bandwidth heterogeneity (§V-E, Fig. 8).
type Ignem struct {
	rand  *rand.Rand
	alive []bool
	buf   []cluster.NodeID
}

// NewIgnem returns the random-immediate-binding policy.
func NewIgnem() *Ignem { return &Ignem{} }

// Name implements Policy.
func (p *Ignem) Name() string { return "Ignem" }

// BindImmediately implements Policy: Ignem never delays binding.
func (p *Ignem) BindImmediately() bool { return true }

// Begin captures the liveness view and the deterministic random stream.
func (p *Ignem) Begin(v View) {
	p.rand = v.Rand
	if len(p.alive) < len(v.Nodes) {
		p.alive = make([]bool, len(v.Nodes))
	}
	for i, nv := range v.Nodes {
		p.alive[i] = nv.Alive
	}
}

// Assign picks a uniformly random live replica.
func (p *Ignem) Assign(req Request) (cluster.NodeID, bool) {
	p.buf = p.buf[:0]
	for _, loc := range req.Replicas {
		if p.alive[int(loc)] {
			p.buf = append(p.buf, loc)
		}
	}
	if len(p.buf) == 0 {
		return -1, false
	}
	return p.buf[p.rand.Intn(len(p.buf))], true
}

// CostAware is the new heuristic this lab adds: each block targets the
// replica with the lowest marginal migration cost
//
//	perByte × size × (queued + assignedThisPass + 1)
//
// i.e. the block's own transfer time scaled by how deep it would sit in
// the node's queue. Unlike DYRS it keeps no running finish-time in
// seconds — only a per-pass slot count — so a node that received one
// huge block earlier in the pass looks as loaded as one that received a
// small block. The comparison quantifies how much of DYRS's win comes
// from true finish-time accounting versus mere queue-depth spreading.
type CostAware struct {
	perByte []float64
	load    []int
	valid   []bool
}

// NewCostAware returns the marginal-cost heuristic.
func NewCostAware() *CostAware { return &CostAware{} }

// Name implements Policy.
func (p *CostAware) Name() string { return "CostAware" }

// BindImmediately implements Policy: delayed binding, like DYRS.
func (p *CostAware) BindImmediately() bool { return false }

// Begin snapshots per-node costs and queue depths.
func (p *CostAware) Begin(v View) {
	n := len(v.Nodes)
	if len(p.load) < n {
		p.perByte = make([]float64, n)
		p.load = make([]int, n)
		p.valid = make([]bool, n)
	}
	for i, nv := range v.Nodes {
		if !nv.Alive {
			p.valid[i] = false
			continue
		}
		p.perByte[i] = nv.PerByte
		p.load[i] = nv.Queued
		p.valid[i] = true
	}
}

// Assign picks the replica with the lowest marginal cost; ties break on
// the first replica in Request order (strict <).
func (p *CostAware) Assign(req Request) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestCost := 0.0
	size := float64(req.Size)
	for _, loc := range req.Replicas {
		if !p.valid[int(loc)] {
			continue
		}
		cost := p.perByte[int(loc)] * size * float64(p.load[int(loc)]+1)
		if best < 0 || cost < bestCost {
			best = loc
			bestCost = cost
		}
	}
	if best < 0 {
		return -1, false
	}
	p.load[int(best)]++
	return best, true
}
