// Package policy extracts the migration target-selection decision —
// which replica of which block should migrate to memory, and when that
// binding happens — behind a small interface, so DYRS, Ignem and new
// heuristics are swappable implementations scored side by side instead
// of branches hard-wired into the coordinator. Every policy migrates;
// the no-migration baseline is an experiment environment that runs no
// migration framework at all.
//
// A policy is a pure decision function over an explicit cluster view:
// it sees per-node liveness, per-byte migration-time estimates and
// queue occupancies (exactly the heartbeat state the DYRS master holds,
// §III-A2) plus each block's live replica locations, and returns a
// target node. Policies hold no simulation references, never read the
// wall clock, and never iterate maps — given the same Begin/Assign call
// sequence they produce the same targets, which is what lets the
// migration layer keep its byte-identical determinism contract after
// the extraction (pinned by the golden corpus in internal/harness).
package policy

import (
	"fmt"
	"math/rand"
	"sort"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// NodeView is one node's state as a policy pass sees it: the master's
// latest heartbeat-derived estimate. Dead nodes keep stale PerByte and
// Queued values; policies must treat Alive == false as untargetable.
type NodeView struct {
	// Alive reports whether the node is up.
	Alive bool
	// PerByte is the node's estimated migration cost in seconds per
	// byte (EWMA over completed and in-progress transfers, §IV-A).
	PerByte float64
	// Queued is the node's migration queue occupancy (queued + active).
	Queued int
}

// View is the cluster state one assignment pass reads. The Nodes slice
// is dense, indexed by cluster.NodeID, and is valid from Begin through
// the pass's last Assign, so a policy may keep it for the pass and read
// it in Assign instead of copying it. The migration binder keeps one
// slice across passes and updates it in place, only between passes; a
// policy must not keep it, or anything read from it, past the pass.
type View struct {
	// Nodes holds the per-node states, indexed by NodeID.
	Nodes []NodeView
	// StdBlock is the file system's configured block size; DYRS
	// initializes per-node finish times in units of standard blocks.
	StdBlock sim.Bytes
	// Rand is the engine-seeded deterministic stream for randomized
	// policies (Ignem). Deterministic policies must not touch it.
	Rand *rand.Rand
}

// Request is one block awaiting a target. Replicas lists the block's
// live replica locations in the file system's stored order; the slice
// is reused between calls and must not be retained.
type Request struct {
	Block    dfs.BlockID
	Size     sim.Bytes
	Replicas []cluster.NodeID
}

// Policy is a migration target-selection strategy. One assignment pass
// is a Begin call followed by an Assign per pending block, in pending
// order; per-pass state (running finish times, pass load) starts from
// the view at Begin, and a policy may initialize a node's share of it
// the first time the pass reads that node.
//
// Implementations must be deterministic: identical views and request
// sequences yield identical targets (randomized policies draw only
// from View.Rand), ties break on the first replica in Request order,
// and dead nodes are never targeted.
type Policy interface {
	// Name identifies the policy in tables, repro lines and -policy flags.
	Name() string
	// BindImmediately reports whether blocks bind to their target the
	// moment they are requested (Ignem) instead of staying pending at
	// the master until a slave pulls (DYRS).
	BindImmediately() bool
	// Begin starts an assignment pass over the view.
	Begin(v View)
	// Assign picks the target for one request. ok is false when no
	// live replica is targetable; the block then stays untargeted.
	Assign(req Request) (target cluster.NodeID, ok bool)
}

// New returns the named policy. Accepted names are Names().
func New(name string) (Policy, error) {
	switch name {
	case "dyrs":
		return NewDYRS(), nil
	case "ignem":
		return NewIgnem(), nil
	case "costaware":
		return NewCostAware(), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (valid: %v)", name, Names())
}

// Names lists the registered policy names, sorted.
func Names() []string {
	names := []string{"dyrs", "ignem", "costaware"}
	sort.Strings(names)
	return names
}
