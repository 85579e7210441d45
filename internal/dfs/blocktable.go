package dfs

import (
	"errors"
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// blockTable is the NameNode's block catalog, stored in fixed pages.
//
// The original implementation kept one heap-allocated Block struct (plus
// a replica slice) per block and three layers of maps for the in-memory
// replica registry. At the paper's 8-node scale that is invisible; at
// datacenter scale (10⁶-10⁷ blocks) it is ~100+ bytes and two pointer
// dereferences per block, and every registry operation hashes a map key.
// The table packs the same information into pages of pageRows blocks,
// indexed by the dense BlockID: block id lives in page id>>pageBits at
// row id&pageMask. Each page holds one 16-byte record per block
//
//	size     uint32  block length (blocks are bounded by the 4 GiB check
//	                 in New; the paper uses 256 MB)
//	fileOf   int32   index into FS.fileList
//	memNode  int32   node holding the in-memory replica, -1 if none
//	memPos   int32   position of the block in that node's resident list
//
// and, in a companion page, its replica locations: int32×R slots,
// stride R = cfg.Replication, padded with -1. That is 16+4R bytes per
// block, no per-block allocations, and O(1) registry lookup/insert/
// remove. A page is allocated whole when its first block is added and
// never moves, so the table allocates each byte it keeps once; doubling
// flat columns instead allocated about twice what it kept. The memNode/
// memPos fields together with the per-node resident lists ARE the
// memory-replica registry: there is one source of truth, kept in
// bijection by construction and cross-checked by Fsck invariant 3.
type blockTable struct {
	stride int
	n      int
	rows   []*[pageRows]blockRow
	reps   [][]int32 // pageRows*stride slots per page
}

// blockRow is one block's record in a page.
type blockRow struct {
	size    uint32
	fileOf  int32
	memNode int32
	memPos  int32
}

// Pages hold 1,024 blocks: 16 KiB of records and 4R KiB of replica
// slots, about what a one-file test file system fills.
const (
	pageBits = 10
	pageRows = 1 << pageBits
	pageMask = pageRows - 1
)

// maxTableBlocks is the most blocks the table holds, so that a block's
// position in a resident list fits its int32 memPos field, and a file
// index (files have at least one block each) its int32 fileOf field.
const maxTableBlocks = 1<<31 - 1

// errUnknownBlock is the panic of a lookup past the table's last block,
// which the last page's unused rows would otherwise answer.
var errUnknownBlock = errors.New("dfs: block id outside the table")

func newBlockTable(stride int) *blockTable {
	if stride <= 0 {
		panic("dfs: block table needs a positive replication stride")
	}
	return &blockTable{stride: stride}
}

// len reports the number of blocks in the table.
func (t *blockTable) len() int { return t.n }

// add appends a block and returns its id. reps may be shorter than the
// stride (degenerate clusters); missing slots are padded with -1.
func (t *blockTable) add(size sim.Bytes, file int32, reps []cluster.NodeID) BlockID {
	if size <= 0 || size > maxBlockBytes {
		panic(fmt.Sprintf("dfs: block size %d outside (0, %d]", size, int64(maxBlockBytes)))
	}
	id := BlockID(t.n)
	if t.n&pageMask == 0 {
		t.rows = append(t.rows, new([pageRows]blockRow))
		t.reps = append(t.reps, make([]int32, pageRows*t.stride))
	}
	t.n++
	*t.row(id) = blockRow{size: uint32(size), fileOf: file, memNode: -1, memPos: -1}
	slots := t.slots(id)
	for i := range slots {
		slots[i] = -1
		if i < len(reps) {
			slots[i] = int32(reps[i])
		}
	}
	return id
}

// row returns the block's record. An id outside the table panics.
func (t *blockTable) row(id BlockID) *blockRow {
	if uint(id) >= uint(t.n) {
		panic(errUnknownBlock)
	}
	return &t.rows[id>>pageBits][id&pageMask]
}

// slots returns the block's stride replica slots, -1 where empty. An id
// outside the table panics.
func (t *blockTable) slots(id BlockID) []int32 {
	if uint(id) >= uint(t.n) {
		panic(errUnknownBlock)
	}
	i := int(id&pageMask) * t.stride
	return t.reps[id>>pageBits][i : i+t.stride : i+t.stride]
}

// blockSize reports the block's length.
func (t *blockTable) blockSize(id BlockID) sim.Bytes { return sim.Bytes(t.row(id).size) }

// replicaCount reports how many replica slots of the block are filled.
func (t *blockTable) replicaCount(id BlockID) int {
	n := 0
	for _, r := range t.slots(id) {
		if r >= 0 {
			n++
		}
	}
	return n
}

// appendReplicas appends the block's replica locations to buf and
// returns it; with a pre-sized buf this allocates nothing.
func (t *blockTable) appendReplicas(id BlockID, buf []cluster.NodeID) []cluster.NodeID {
	for _, r := range t.slots(id) {
		if r >= 0 {
			buf = append(buf, cluster.NodeID(r))
		}
	}
	return buf
}

// holdsReplica reports whether node holds a disk replica of the block.
func (t *blockTable) holdsReplica(id BlockID, node cluster.NodeID) bool {
	for _, r := range t.slots(id) {
		if r == int32(node) {
			return true
		}
	}
	return false
}
