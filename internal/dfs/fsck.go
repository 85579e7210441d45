package dfs

import (
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// Fsck walks the file system's internal state and reports invariant
// violations. It is used by failure-injection tests to prove that
// crashes, restarts and evictions never corrupt the catalog or the
// memory accounting.
//
// Invariants checked:
//  1. Every file's blocks exist, belong to it, and are indexed densely
//     (consecutive block IDs from the file's first block).
//  2. Every block has between 1 and Replication replicas, all distinct.
//  3. The in-memory replica registry (the table rows' memNode/memPos
//     fields) and the per-node resident lists agree in both directions:
//     the registry points into the holder's resident list, and every
//     resident block is the registry's holder (a block has at most one
//     memory replica).
//  4. Per-DataNode buffered-byte accounting equals the sum of resident
//     block sizes, and no node exceeds its memory capacity.
//  5. Every buffered block is also a disk-replica holder's block (memory
//     replicas are created by migrating a local disk replica).
func (fs *FS) Fsck() []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// 1-2: catalog structure.
	for name, f := range fs.files {
		var total sim.Bytes
		for i, id := range f.Blocks {
			if int(id) >= fs.table.len() {
				report("file %s references unknown block %d", name, id)
				continue
			}
			owner := fs.fileList[fs.table.row(id).fileOf]
			if owner.Name != name {
				report("block %d claims file %s, referenced by %s", id, owner.Name, name)
			}
			if len(f.Blocks) > 0 && id != f.Blocks[0]+BlockID(i) {
				report("block %d of %s breaks the file's dense ID range (index %d, first %d)",
					id, name, i, f.Blocks[0])
			}
			nrep := fs.table.replicaCount(id)
			if nrep == 0 || nrep > fs.cfg.Replication {
				report("block %d has %d replicas", id, nrep)
			}
			slots := fs.table.slots(id)
			for si, r := range slots {
				if r < 0 {
					continue
				}
				for _, other := range slots[si+1:] {
					if other == r {
						report("block %d has duplicate replica on %v", id, cluster.NodeID(r))
					}
				}
			}
			total += fs.table.blockSize(id)
		}
		if total != f.Size {
			report("file %s block sizes sum to %d, want %d", name, total, f.Size)
		}
	}

	// 3: registry consistency (forward direction).
	registered := 0
	for id := BlockID(0); int(id) < fs.table.len(); id++ {
		row := fs.table.row(id)
		node, pos := row.memNode, row.memPos
		if node < 0 {
			if pos >= 0 {
				report("block %d has no memory holder but resident position %d", id, pos)
			}
			continue
		}
		registered++
		dn := fs.dns[int(node)]
		if pos < 0 || int(pos) >= len(dn.resident) || dn.resident[pos] != id {
			report("registry says block %d is at position %d on %v, but the resident list disagrees",
				id, pos, dn.node.ID)
		}
	}
	if registered != fs.memCount {
		report("registry holds %d memory replicas, counter says %d", registered, fs.memCount)
	}

	// 3 (reverse), 4-5: per-node accounting.
	for _, dn := range fs.dns {
		var sum sim.Bytes
		for _, id := range dn.resident {
			if holder := fs.table.row(id).memNode; holder != int32(dn.node.ID) {
				report("node %v buffers block %d, but the registry records holder %d",
					dn.node.ID, id, holder)
			}
			sum += fs.table.blockSize(id)
			if !fs.table.holdsReplica(id, dn.node.ID) {
				report("node %v buffers block %d without holding a disk replica", dn.node.ID, id)
			}
		}
		if sum != dn.memUsed {
			report("node %v accounting: used=%d, blocks sum to %d", dn.node.ID, dn.memUsed, sum)
		}
		if dn.memUsed < 0 {
			report("node %v has negative buffered bytes: %d", dn.node.ID, dn.memUsed)
		}
		if cap := dn.node.Cfg.MemCapacity; dn.memUsed > cap {
			report("node %v buffers %d bytes, exceeding its memory capacity %d", dn.node.ID, dn.memUsed, cap)
		}
	}
	return errs
}
