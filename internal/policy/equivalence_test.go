package policy

import (
	"math"
	"math/rand"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// The eager policies below are the reference TestLazyPassMatchesEager
// holds the policies to: Begin copies every node's view and initializes
// every node's finish time or load, and Assign reads only the copies.

type eagerDYRS struct {
	finish, perByte []float64
	valid           []bool
}

func (p *eagerDYRS) Name() string          { return "DYRS" }
func (p *eagerDYRS) BindImmediately() bool { return false }

func (p *eagerDYRS) Begin(v View) {
	n := len(v.Nodes)
	if len(p.finish) < n {
		p.finish, p.perByte, p.valid = make([]float64, n), make([]float64, n), make([]bool, n)
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

func (p *eagerDYRS) Assign(req Request) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestFinish := 0.0
	size := float64(req.Size)
	for _, loc := range req.Replicas {
		if !p.valid[int(loc)] {
			continue
		}
		f := p.finish[int(loc)] + p.perByte[int(loc)]*size
		if best < 0 || f < bestFinish {
			best, bestFinish = loc, f
		}
	}
	if best < 0 {
		return -1, false
	}
	p.finish[int(best)] = bestFinish
	return best, true
}

type eagerIgnem struct {
	rand  *rand.Rand
	alive []bool
	buf   []cluster.NodeID
}

func (p *eagerIgnem) Name() string          { return "Ignem" }
func (p *eagerIgnem) BindImmediately() bool { return true }

func (p *eagerIgnem) Begin(v View) {
	p.rand = v.Rand
	if len(p.alive) < len(v.Nodes) {
		p.alive = make([]bool, len(v.Nodes))
	}
	for i, nv := range v.Nodes {
		p.alive[i] = nv.Alive
	}
}

func (p *eagerIgnem) Assign(req Request) (cluster.NodeID, bool) {
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

type eagerCostAware struct {
	perByte []float64
	load    []int
	valid   []bool
}

func (p *eagerCostAware) Name() string          { return "CostAware" }
func (p *eagerCostAware) BindImmediately() bool { return false }

func (p *eagerCostAware) Begin(v View) {
	n := len(v.Nodes)
	if len(p.load) < n {
		p.perByte, p.load, p.valid = make([]float64, n), make([]int, n), make([]bool, n)
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

func (p *eagerCostAware) Assign(req Request) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestCost := 0.0
	size := float64(req.Size)
	for _, loc := range req.Replicas {
		if !p.valid[int(loc)] {
			continue
		}
		cost := p.perByte[int(loc)] * size * float64(p.load[int(loc)]+1)
		if best < 0 || cost < bestCost {
			best, bestCost = loc, cost
		}
	}
	if best < 0 {
		return -1, false
	}
	p.load[int(best)]++
	return best, true
}

// newEager returns the eager reference for the named policy.
func newEager(t *testing.T, name string) Policy {
	switch name {
	case "dyrs":
		return &eagerDYRS{}
	case "ignem":
		return &eagerIgnem{}
	case "costaware":
		return &eagerCostAware{}
	}
	t.Fatalf("no eager reference for policy %q", name)
	return nil
}

// wrapStamp forces a policy's pass generation to its wrap point, with
// every node stamped by generation 1, one full cycle ago: the value the
// generation restarts from. A pass that wrapped without clearing the
// stamps would take every node as already initialized.
func wrapStamp(p Policy) {
	switch p := p.(type) {
	case *DYRS:
		wrapPass(&p.finish)
	case *CostAware:
		wrapPass(&p.load)
	}
}

func wrapPass[T any](s *perPass[T]) {
	s.gen = math.MaxUint32
	for i := range s.cells {
		s.cells[i].gen = 1
	}
}

// randomNode draws one node's view; about one node in six is dead.
func randomNode(rng *rand.Rand) NodeView {
	return NodeView{
		Alive:   rng.Intn(6) != 0,
		PerByte: 1e-9 * float64(1+rng.Intn(40)),
		Queued:  rng.Intn(5),
	}
}

// TestLazyPassMatchesEager runs every registered policy beside its
// eager reference over seeded sequences of passes and requires the same
// target for every request. The view is one slice updated in place
// between passes, as the migration binder keeps it. Between passes the
// view is left unchanged, or nodes die, revive or report new estimates;
// passes have from zero to many requests, with repeated, dead and
// shared replicas. Half-way through each sequence the lazy policy's
// generation is forced to its wrap point.
func TestLazyPassMatchesEager(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				lazy, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				eager := newEager(t, name)
				rng := rand.New(rand.NewSource(seed))
				nodes := make([]NodeView, 1+rng.Intn(48))
				for i := range nodes {
					nodes[i] = randomNode(rng)
				}
				lazyRand, eagerRand := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				const passes = 40
				for pass := 0; pass < passes; pass++ {
					switch rng.Intn(4) {
					case 0: // an unchanged view
					case 1: // deaths and revivals
						for k := rng.Intn(4); k >= 0; k-- {
							nv := &nodes[rng.Intn(len(nodes))]
							nv.Alive = !nv.Alive
						}
					default: // new estimates, on live and dead nodes
						for k := rng.Intn(6); k >= 0; k-- {
							nv := &nodes[rng.Intn(len(nodes))]
							alive := nv.Alive
							*nv = randomNode(rng)
							nv.Alive = alive
						}
					}
					if pass == passes/2 {
						wrapStamp(lazy)
					}
					std := sim.Bytes(64+64*rng.Intn(2)) * sim.MB
					lazy.Begin(View{Nodes: nodes, StdBlock: std, Rand: lazyRand})
					eager.Begin(View{Nodes: nodes, StdBlock: std, Rand: eagerRand})
					reps := make([]cluster.NodeID, 3)
					for k, n := 0, rng.Intn(24); k < n; k++ {
						r := reps[:1+rng.Intn(3)]
						for j := range r {
							r[j] = cluster.NodeID(rng.Intn(len(nodes)))
						}
						req := Request{
							Block:    dfs.BlockID(k),
							Size:     sim.Bytes(1+rng.Intn(256)) * sim.MB,
							Replicas: r,
						}
						gotN, gotOK := lazy.Assign(req)
						wantN, wantOK := eager.Assign(req)
						if gotN != wantN || gotOK != wantOK {
							t.Fatalf("seed %d pass %d request %d (replicas %v): got (%d, %v), eager (%d, %v)",
								seed, pass, k, r, gotN, gotOK, wantN, wantOK)
						}
					}
				}
			}
		})
	}
}
