package dfs

import (
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// blockTable is the NameNode's block catalog as a struct of arrays.
//
// The original implementation kept one heap-allocated Block struct (plus
// a replica slice) per block and three layers of maps for the in-memory
// replica registry. At the paper's 8-node scale that is invisible; at
// datacenter scale (10⁶-10⁷ blocks) it is ~100+ bytes and two pointer
// dereferences per block, and every registry operation hashes a map key.
// The table packs the same information into parallel arrays indexed by
// the dense BlockID:
//
//	size     uint32  block length (blocks are bounded by the 4 GiB check
//	                 in New; the paper uses 256 MB)
//	fileOf   int32   index into FS.fileList
//	replicas int32×R replica locations, stride R = cfg.Replication,
//	                 padded with -1
//	memNode  int32   node holding the in-memory replica, -1 if none
//	memPos   int32   position of the block in that node's resident list
//
// for ~(16+4R) bytes per block, no per-block allocations, and O(1)
// registry lookup/insert/remove. The memNode/memPos columns together
// with the per-node resident lists ARE the memory-replica registry:
// there is one source of truth, kept in bijection by construction and
// cross-checked by Fsck invariant 3/6.
type blockTable struct {
	stride   int
	size     []uint32
	fileOf   []int32
	replicas []int32
	memNode  []int32
	memPos   []int32
}

func newBlockTable(stride int) *blockTable {
	if stride <= 0 {
		panic("dfs: block table needs a positive replication stride")
	}
	return &blockTable{stride: stride}
}

// len reports the number of blocks in the table.
func (t *blockTable) len() int { return len(t.size) }

// add appends a block and returns its id. reps may be shorter than the
// stride (degenerate clusters); missing slots are padded with -1.
func (t *blockTable) add(size sim.Bytes, file int32, reps []cluster.NodeID) BlockID {
	if size <= 0 || size > maxBlockBytes {
		panic(fmt.Sprintf("dfs: block size %d outside (0, %d]", size, int64(maxBlockBytes)))
	}
	id := BlockID(len(t.size))
	t.size = append(t.size, uint32(size))
	t.fileOf = append(t.fileOf, file)
	for i := 0; i < t.stride; i++ {
		r := int32(-1)
		if i < len(reps) {
			r = int32(reps[i])
		}
		t.replicas = append(t.replicas, r)
	}
	t.memNode = append(t.memNode, -1)
	t.memPos = append(t.memPos, -1)
	return id
}

// grow pre-sizes the arrays for n additional blocks, so bulk file
// creation at scale does not pay repeated slice regrowth. Reallocation
// is geometric (at least doubling) and skipped entirely when capacity
// already suffices — growing exactly per file would copy the whole
// table once per CreateFile, turning bulk namespace creation quadratic.
func (t *blockTable) grow(n int) {
	if n <= 0 {
		return
	}
	t.size = growSlice(t.size, len(t.size)+n)
	t.fileOf = growSlice(t.fileOf, len(t.fileOf)+n)
	t.replicas = growSlice(t.replicas, len(t.replicas)+n*t.stride)
	t.memNode = growSlice(t.memNode, len(t.memNode)+n)
	t.memPos = growSlice(t.memPos, len(t.memPos)+n)
}

// growSlice returns s with capacity >= need, at least doubling on
// reallocation so repeated grows amortize to O(1) per element.
func growSlice[T any](s []T, need int) []T {
	if need <= cap(s) {
		return s
	}
	newCap := 2 * cap(s)
	if newCap < need {
		newCap = need
	}
	return append(make([]T, 0, newCap), s...)
}

// blockSize reports the block's length.
func (t *blockTable) blockSize(id BlockID) sim.Bytes { return sim.Bytes(t.size[int(id)]) }

// replicaCount reports how many replica slots of the block are filled.
func (t *blockTable) replicaCount(id BlockID) int {
	base := int(id) * t.stride
	n := 0
	for i := 0; i < t.stride; i++ {
		if t.replicas[base+i] >= 0 {
			n++
		}
	}
	return n
}

// appendReplicas appends the block's replica locations to buf and
// returns it; with a pre-sized buf this allocates nothing.
func (t *blockTable) appendReplicas(id BlockID, buf []cluster.NodeID) []cluster.NodeID {
	base := int(id) * t.stride
	for i := 0; i < t.stride; i++ {
		if r := t.replicas[base+i]; r >= 0 {
			buf = append(buf, cluster.NodeID(r))
		}
	}
	return buf
}

// holdsReplica reports whether node holds a disk replica of the block.
func (t *blockTable) holdsReplica(id BlockID, node cluster.NodeID) bool {
	base := int(id) * t.stride
	for i := 0; i < t.stride; i++ {
		if t.replicas[base+i] == int32(node) {
			return true
		}
	}
	return false
}
