package migration

import (
	"fmt"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
)

// FuzzRecordLifecycle drives the master's block records through random
// request, read, eviction and failure sequences and checks, after every
// operation, that record recycling never hands out a record something
// still holds. The first byte picks the rig: 4 to 7 nodes under the
// DYRS, Naive or Ignem binder. The rest is an op program over five
// files of 1 to 5 blocks:
//
//	0 j m  Migrate for job j the files in mask m (bit 5 adds the first
//	       chosen file twice, bit 6 makes the request implicit)
//	1 j    Evict job j
//	2 j b  NoteRead of block b by job j
//	3 d    RunFor d × 50 ms
//	4      RestartMaster
//	5 n    RestartSlaveProcess on node n
//
// Invariants checked after every op:
//   - no record on the coordinator's spare list is held by the binder's
//     pending list (live or tombstoned entries), a slave queue or a
//     transfer slot, and none is on the list twice;
//   - a spare record is released, unreferenced, not detached and not
//     listed;
//   - every live record resolves through info under its own id
//     (checkRecords);
//   - the binder's pending count equals the master's pending tally.
func FuzzRecordLifecycle(f *testing.F) {
	f.Add([]byte{})
	// Request, evict and request again in one instant: the tombstoned
	// entries must be revived, not recycled or listed twice.
	f.Add([]byte{0, 0, 1, 0x01, 1, 1, 0, 2, 0x01, 3, 100})
	// Overlapping implicit and explicit jobs, reads, a long run.
	f.Add([]byte{1, 0, 1, 0x43, 0, 2, 0x06, 2, 1, 0, 2, 1, 4, 3, 40, 2, 1, 6, 1, 2, 3, 200})
	// Reads that land after migration release in-memory records, whose
	// reuse a later job picks up; then a slave crash and a fail-over.
	f.Add([]byte{0, 0, 1, 0x5f, 3, 255, 2, 1, 0, 2, 1, 1, 2, 1, 2, 0, 2, 0x1f, 5, 1, 3, 20, 4, 0, 3, 0x0f, 3, 255, 1, 3, 1, 2})
	// The same under Naive and Ignem.
	f.Add([]byte{4, 0, 1, 0x5f, 3, 60, 2, 1, 0, 1, 1, 0, 2, 0x03, 3, 60, 5, 0, 1, 2, 3, 255})
	f.Add([]byte{8, 0, 1, 0x5f, 3, 60, 2, 1, 0, 1, 1, 0, 2, 0x03, 4, 3, 60, 1, 2, 3, 255})
	// A fail-over with blocks in every state, then re-requests of them.
	f.Add([]byte{3, 0, 1, 0x1f, 3, 30, 4, 0, 2, 0x1f, 1, 1, 3, 30, 2, 2, 3, 1, 2, 3, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxOps = 64
		var binder Binder
		switch data[0] / 4 % 3 {
		case 0:
			binder = NewDYRSBinder()
		case 1:
			binder = NewNaiveBinder()
		default:
			binder = NewPolicyBinder(policy.NewIgnem())
		}
		nodes := 4 + int(data[0]%4)
		r := newRig(t, 1, nodes, binder, nil, DefaultConfig())
		defer r.c.Shutdown()
		var files []string
		var blocks []dfs.BlockID
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("f%d", i)
			blocks = append(blocks, r.mkFile(t, name, 1+i).Blocks...)
			files = append(files, name)
		}
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for op := 0; op < maxOps && len(data) > 0; op++ {
			switch next() % 6 {
			case 0:
				job, mask := JobID(1+next()%4), next()
				var req []string
				for i, name := range files {
					if mask&(1<<i) != 0 {
						req = append(req, name)
					}
				}
				if len(req) > 0 && mask&0x20 != 0 {
					req = append(req, req[0])
				}
				if err := r.c.Migrate(job, req, mask&0x40 != 0); err != nil {
					t.Fatal(err)
				}
			case 1:
				r.c.Evict(JobID(1 + next()%4))
			case 2:
				job := JobID(1 + next()%4)
				r.c.NoteRead(job, blocks[next()%len(blocks)])
			case 3:
				r.eng.RunFor(time.Duration(next()) * 50 * time.Millisecond)
			case 4:
				r.c.RestartMaster()
			case 5:
				r.c.RestartSlaveProcess(cluster.NodeID(next() % nodes))
			}
			checkSpare(t, r.c)
			checkRecords(t, r.c)
			if pending, _, _, _ := r.c.StateCounts(); r.c.PendingBlocks() != pending {
				t.Fatalf("op %d: binder holds %d pending blocks, master counts %d", op, r.c.PendingBlocks(), pending)
			}
		}
	})
}

// checkSpare checks that the coordinator's spare records are free: on
// the list once each, released and unreferenced, and held by no binder
// list, slave queue or transfer slot.
func checkSpare(t *testing.T, c *Coordinator) {
	t.Helper()
	spare := make(map[*blockInfo]bool, len(c.spare))
	for _, bi := range c.spare {
		if spare[bi] {
			t.Fatalf("record of block %d is on the spare list twice", bi.id)
		}
		spare[bi] = true
		if bi.state != stateNone || len(bi.refs) > 0 || bi.detached || bi.listed {
			t.Fatalf("spare record of block %d: state %v, %d refs, detached %v, listed %v",
				bi.id, bi.state, len(bi.refs), bi.detached, bi.listed)
		}
	}
	held := func(where string, list []*blockInfo) {
		t.Helper()
		for _, bi := range list {
			if spare[bi] {
				t.Fatalf("%s holds the spare record of block %d", where, bi.id)
			}
		}
	}
	switch b := c.binder.(type) {
	case *PolicyBinder:
		held("binder pending list", b.pending)
	case *NaiveBinder:
		held("binder pending list", b.pending)
	}
	for _, s := range c.slaves {
		held(fmt.Sprintf("slave %v queue", s.node.ID), s.queue)
		for i := range s.active {
			if bi := s.active[i].bi; bi != nil && spare[bi] {
				t.Fatalf("slave %v transfer holds the spare record of block %d", s.node.ID, bi.id)
			}
		}
	}
}
