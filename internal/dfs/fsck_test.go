package dfs

import (
	"strings"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// Fsck unit tests: deliberately corrupt each class of internal state and
// assert the corresponding documented invariant is reported. These are
// the direct counterparts of the chaos/fuzz harness, which relies on
// Fsck as its structural oracle — if Fsck is blind, so is the harness.

// fsckRig builds a small healthy file system with one registered memory
// replica, and asserts it starts clean.
func fsckRig(t *testing.T) (*FS, *File, cluster.NodeID) {
	t.Helper()
	_, _, fs := newTestFS(t, 5, 77)
	f, err := fs.CreateFile("in", 3*256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	memNode := fs.Replicas(f.Blocks[0])[0]
	fs.RegisterMem(f.Blocks[0], memNode)
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("healthy rig is not clean: %v", errs)
	}
	return fs, f, memNode
}

// expectFsck asserts at least one Fsck error mentions want.
func expectFsck(t *testing.T, fs *FS, want string) {
	t.Helper()
	errs := fs.Fsck()
	for _, err := range errs {
		if strings.Contains(err.Error(), want) {
			return
		}
	}
	t.Fatalf("no fsck error containing %q; got %v", want, errs)
}

func TestFsckUnknownBlockReference(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	f.Blocks = append(f.Blocks, BlockID(9999))
	expectFsck(t, fs, "references unknown block")
}

func TestFsckBlockIndexAndOwnership(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	// Swapping two blocks breaks the dense-ID invariant.
	f.Blocks[0], f.Blocks[1] = f.Blocks[1], f.Blocks[0]
	expectFsck(t, fs, "dense ID range")

	fs2, f2, _ := fsckRig(t)
	if _, err := fs2.CreateFile("someone-else", 256*sim.MB); err != nil {
		t.Fatal(err)
	}
	// Point the block's fileOf field at the other file.
	fs2.table.row(f2.Blocks[0]).fileOf = int32(len(fs2.fileList) - 1)
	expectFsck(t, fs2, "claims file")
}

func TestFsckFileSizeMismatch(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	f.Size += 123
	expectFsck(t, fs, "block sizes sum to")
}

func TestFsckReplicaCountAndDuplicates(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	slots := fs.table.slots(f.Blocks[1])
	for i := range slots {
		slots[i] = -1
	}
	expectFsck(t, fs, "has 0 replicas")
	slots[0] = int32(memNode)
	slots[1] = int32(memNode)
	expectFsck(t, fs, "duplicate replica")
}

func TestFsckRegistryPointsAtEmptyNode(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	// Forward direction: registry entry without a backing buffer.
	fs.dns[int(memNode)].resident = fs.dns[int(memNode)].resident[:0]
	fs.dns[int(memNode)].memUsed = 0
	expectFsck(t, fs, "the resident list disagrees")
}

func TestFsckBufferWithoutRegistryEntry(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	// Reverse direction: buffered block the registry does not know (or
	// records on another node) — the orphan shape a master restart plus
	// re-migration used to leave behind.
	b := f.Blocks[1]
	other := fs.Replicas(b)[0]
	fs.dns[int(other)].resident = append(fs.dns[int(other)].resident, b)
	fs.dns[int(other)].memUsed += fs.BlockSize(b)
	expectFsck(t, fs, "but the registry records holder")
	_ = memNode
}

func TestFsckAccountingMismatch(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	fs.dns[int(memNode)].memUsed += 7
	expectFsck(t, fs, "accounting: used=")
}

func TestFsckNegativeAccounting(t *testing.T) {
	t.Parallel()
	fs, f, memNode := fsckRig(t)
	fs.DropMem(f.Blocks[0], memNode)
	fs.dns[int(memNode)].memUsed = -1
	expectFsck(t, fs, "negative buffered bytes")
}

func TestFsckMemoryCapacityExceeded(t *testing.T) {
	t.Parallel()
	fs, _, memNode := fsckRig(t)
	dn := fs.dns[int(memNode)]
	dn.memUsed = dn.node.Cfg.MemCapacity + 1
	expectFsck(t, fs, "exceeding its memory capacity")
}

func TestFsckBufferWithoutDiskReplica(t *testing.T) {
	t.Parallel()
	fs, f, _ := fsckRig(t)
	b := f.Blocks[2]
	reps := fs.Replicas(b)
	// Find a node that holds no disk replica of the block.
	var outsider cluster.NodeID = -1
	for n := 0; n < 5; n++ {
		holds := false
		for _, r := range reps {
			if int(r) == n {
				holds = true
			}
		}
		if !holds {
			outsider = cluster.NodeID(n)
			break
		}
	}
	if outsider < 0 {
		t.Fatal("every node holds a replica; enlarge the rig")
	}
	fs.RegisterMem(b, outsider)
	expectFsck(t, fs, "without holding a disk replica")
}
