package dfs

// Differential tests pitting the paged block table and the registry
// fields of its rows against straightforward map-based reference
// implementations — the shape of the catalog before the table.
// The references are deliberately naive (maps of slices, no scratch
// buffers, no positional bookkeeping): any divergence under a long
// random op sequence is a bug in the compact representation, not in the
// model.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// refTable is the map-based reference for blockTable: one entry per
// block, replica sets as plain slices.
type refTable struct {
	stride int
	sizes  map[BlockID]sim.Bytes
	files  map[BlockID]int32
	reps   map[BlockID][]cluster.NodeID
}

func (r *refTable) add(size sim.Bytes, file int32, reps []cluster.NodeID) BlockID {
	id := BlockID(len(r.sizes))
	r.sizes[id] = size
	r.files[id] = file
	r.reps[id] = append([]cluster.NodeID(nil), reps...)
	return id
}

func (r *refTable) holds(id BlockID, node cluster.NodeID) bool {
	for _, n := range r.reps[id] {
		if n == node {
			return true
		}
	}
	return false
}

// TestBlockTableDifferential drives a long seeded op sequence through
// blockTable and refTable in lockstep and compares every accessor after
// every mutation, then every block again once the table spans two
// pages. Replica sets are compared in slot order, since the rack
// placement tests depend on placement order surviving. A lookup past
// the last block must panic, although the last page has a row for it.
func TestBlockTableDifferential(t *testing.T) {
	t.Parallel()
	const nodes, stride, ops = 12, 3, 4000
	rng := rand.New(rand.NewSource(99))
	tab := newBlockTable(stride)
	ref := &refTable{
		stride: stride,
		sizes:  make(map[BlockID]sim.Bytes),
		files:  make(map[BlockID]int32),
		reps:   make(map[BlockID][]cluster.NodeID),
	}

	drawReps := func() []cluster.NodeID {
		n := 1 + rng.Intn(stride) // short sets exercise the -1 padding
		perm := rng.Perm(nodes)
		reps := make([]cluster.NodeID, n)
		for i := range reps {
			reps[i] = cluster.NodeID(perm[i])
		}
		return reps
	}
	checkBlock := func(id BlockID) {
		if got, want := tab.blockSize(id), ref.sizes[id]; got != want {
			t.Fatalf("block %d size: table %d, reference %d", id, got, want)
		}
		if got, want := tab.row(id).fileOf, ref.files[id]; got != want {
			t.Fatalf("block %d file: table %d, reference %d", id, got, want)
		}
		if got, want := tab.appendReplicas(id, nil), ref.reps[id]; !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d replicas: table %v, reference %v", id, got, want)
		}
		if got, want := tab.replicaCount(id), len(ref.reps[id]); got != want {
			t.Fatalf("block %d replica count: table %d, reference %d", id, got, want)
		}
		for n := 0; n < nodes; n++ {
			if got, want := tab.holdsReplica(id, cluster.NodeID(n)), ref.holds(id, cluster.NodeID(n)); got != want {
				t.Fatalf("block %d holdsReplica(%d): table %v, reference %v", id, n, got, want)
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch {
		case tab.len() == 0 || rng.Intn(3) == 0:
			size := sim.Bytes(1 + rng.Int63n(int64(maxBlockBytes)))
			file := int32(rng.Intn(50))
			reps := drawReps()
			got := tab.add(size, file, reps)
			want := ref.add(size, file, reps)
			if got != want {
				t.Fatalf("op %d: add returned id %d, reference %d", op, got, want)
			}
			checkBlock(got)
		default:
			checkBlock(BlockID(rng.Intn(tab.len()))) // later adds must not disturb it
		}
	}
	if tab.len() != len(ref.sizes) {
		t.Fatalf("table has %d blocks, reference %d", tab.len(), len(ref.sizes))
	}
	if tab.len() <= pageRows {
		t.Fatalf("table has %d blocks, want more than one %d-row page", tab.len(), pageRows)
	}
	for id := BlockID(0); int(id) < tab.len(); id++ {
		checkBlock(id)
	}
	for _, id := range []BlockID{-1, BlockID(tab.len()), BlockID(tab.len() + 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("looking up block %d of %d did not panic", id, tab.len())
				}
			}()
			tab.row(id)
		}()
	}
}

// refRegistry is the map-based reference for the memory-replica
// registry — the "three layers of maps" the memNode/memPos fields and
// resident lists replaced.
type refRegistry struct {
	holder  map[BlockID]cluster.NodeID
	memUsed map[cluster.NodeID]sim.Bytes
}

func (r *refRegistry) register(id BlockID, size sim.Bytes, node cluster.NodeID) {
	if prev, ok := r.holder[id]; ok {
		if prev == node {
			return
		}
		r.memUsed[prev] -= size
	}
	r.holder[id] = node
	r.memUsed[node] += size
}

func (r *refRegistry) drop(id BlockID, size sim.Bytes, node cluster.NodeID) {
	if n, ok := r.holder[id]; !ok || n != node {
		return
	}
	delete(r.holder, id)
	r.memUsed[node] -= size
}

func (r *refRegistry) dropAll(node cluster.NodeID) {
	for id, n := range r.holder {
		if n == node {
			delete(r.holder, id)
		}
	}
	r.memUsed[node] = 0
}

func (r *refRegistry) residentSorted(node cluster.NodeID) []BlockID {
	var ids []BlockID
	for id, n := range r.holder {
		if n == node {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestRegistryDifferential drives random RegisterMem / DropMem /
// DropAllMem sequences (including the re-registration and wrong-node
// no-op edge cases) against the reference registry and compares the
// full observable registry state after every operation, with Fsck as a
// structural backstop at checkpoints.
func TestRegistryDifferential(t *testing.T) {
	t.Parallel()
	const nodes, ops = 8, 3000
	eng := sim.NewEngine(7)
	cl := cluster.New(eng, nodes, nil)
	fs := New(cl, DefaultConfig())
	if _, err := fs.CreateFile("in", 60*fs.Config().BlockSize); err != nil {
		t.Fatal(err)
	}
	ref := &refRegistry{
		holder:  make(map[BlockID]cluster.NodeID),
		memUsed: make(map[cluster.NodeID]sim.Bytes),
	}

	rng := rand.New(rand.NewSource(13))
	nBlocks := fs.NumBlocks()
	for op := 0; op < ops; op++ {
		id := BlockID(rng.Intn(nBlocks))
		switch rng.Intn(10) {
		case 0:
			node := cluster.NodeID(rng.Intn(nodes))
			fs.DropAllMem(node)
			ref.dropAll(node)
		case 1, 2, 3:
			node := cluster.NodeID(rng.Intn(nodes)) // wrong holder half the time
			fs.DropMem(id, node)
			ref.drop(id, fs.BlockSize(id), node)
		default:
			// Memory replicas come from local disk replicas; stay on the
			// block's replica set so invariant 5 holds.
			reps := fs.Replicas(id)
			node := reps[rng.Intn(len(reps))]
			fs.RegisterMem(id, node)
			ref.register(id, fs.BlockSize(id), node)
		}

		if got, want := fs.MemReplicaCount(), len(ref.holder); got != want {
			t.Fatalf("op %d: registry count %d, reference %d", op, got, want)
		}
		holder, ok := fs.MemReplica(id)
		refHolder, refOK := ref.holder[id]
		if ok != refOK || (ok && holder != refHolder) {
			t.Fatalf("op %d: block %d holder (%v,%v), reference (%v,%v)", op, id, holder, ok, refHolder, refOK)
		}
		if op%100 == 0 {
			var total sim.Bytes
			for n := 0; n < nodes; n++ {
				dn := fs.DataNode(cluster.NodeID(n))
				if got, want := dn.MemUsed(), ref.memUsed[cluster.NodeID(n)]; got != want {
					t.Fatalf("op %d: node %d memUsed %d, reference %d", op, n, got, want)
				}
				if got, want := dn.MemBlockIDs(), ref.residentSorted(cluster.NodeID(n)); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("op %d: node %d resident %v, reference %v", op, n, got, want)
				}
				total += dn.MemUsed()
			}
			if total != fs.TotalMemUsed() {
				t.Fatalf("op %d: TotalMemUsed %d, per-node sum %d", op, fs.TotalMemUsed(), total)
			}
			for _, err := range fs.Fsck() {
				t.Fatalf("op %d: fsck: %v", op, err)
			}
		}
	}
}

// blocksOnNode scans the block table for the blocks with a disk replica
// on the node, in block-ID order.
func blocksOnNode(fs *FS, node cluster.NodeID) []BlockID {
	var out []BlockID
	for id := BlockID(0); int(id) < fs.table.len(); id++ {
		if fs.table.holdsReplica(id, node) {
			out = append(out, id)
		}
	}
	return out
}

// rackCounts counts the disk replicas homed in each rack, scanning the
// block table.
func rackCounts(fs *FS) []int {
	out := make([]int, fs.Cluster().Racks())
	for id := BlockID(0); int(id) < fs.table.len(); id++ {
		for _, r := range fs.table.appendReplicas(id, nil) {
			out[fs.Cluster().Rack(r)]++
		}
	}
	return out
}

// TestRackIndexAcrossNodeDeath: killing a node must not disturb the
// catalog's replica records or the per-rack counts — the NameNode
// catalog still records the replicas; only the liveness view changes.
func TestRackIndexAcrossNodeDeath(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine(11)
	cl := cluster.New(eng, 12, nil)
	cl.ConfigureRacks(4, 0)
	fs := New(cl, DefaultConfig())
	if _, err := fs.CreateFile("in", 48*fs.Config().BlockSize); err != nil {
		t.Fatal(err)
	}
	before := rackCounts(fs)
	victim := cluster.NodeID(5)
	victimPosting := blocksOnNode(fs, victim)
	if len(victimPosting) == 0 {
		t.Fatal("victim holds no replicas; pick another seed")
	}

	cl.KillNode(victim)

	if got := rackCounts(fs); !reflect.DeepEqual(got, before) {
		t.Errorf("rack counts changed across node death: %v -> %v", before, got)
	}
	if got := blocksOnNode(fs, victim); !reflect.DeepEqual(got, victimPosting) {
		t.Errorf("dead node's replica list changed: %d -> %d entries", len(victimPosting), len(got))
	}
	for _, id := range victimPosting {
		for _, r := range fs.Replicas(id) {
			if r == victim {
				t.Fatalf("block %d still offers dead node %v as a live replica", id, victim)
			}
		}
	}
	for _, err := range fs.Fsck() {
		t.Errorf("fsck after death: %v", err)
	}
}
