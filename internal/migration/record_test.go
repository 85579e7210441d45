package migration

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

// TestBlockInfoSize pins the packed record: the master keeps one per
// requested block, so every word is paid a million times over at
// datacenter scale.
func TestBlockInfoSize(t *testing.T) {
	if n := unsafe.Sizeof(blockInfo{}); n > 104 {
		t.Errorf("blockInfo is %d bytes, want <= 104", n)
	}
	if n := unsafe.Sizeof(jobRef{}); n > 16 {
		t.Errorf("jobRef is %d bytes, want <= 16", n)
	}
}

// chunkGaps counts the records of recs, carved in request order from
// chunks of recordChunk records, that do not sit right after the
// record before them in the same chunk. Pairs across a chunk boundary
// are not checked: two separately allocated chunks may sit back to
// back in memory.
func chunkGaps(recs []*blockInfo) int {
	gaps := 0
	for i := 1; i < len(recs); i++ {
		if i%recordChunk != 0 && uintptr(unsafe.Pointer(recs[i])) != uintptr(unsafe.Pointer(recs[i-1]))+unsafe.Sizeof(blockInfo{}) {
			gaps++
		}
	}
	return gaps
}

// checkRecords checks that every record in info sits under its own id
// and that every record the binder and the slave queues hold is the one
// info holds for its id, unless a master restart detached it.
func checkRecords(t *testing.T, c *Coordinator) (tracked int) {
	t.Helper()
	for id, bi := range c.info {
		if bi == nil {
			continue
		}
		tracked++
		if int(bi.id) != id {
			t.Fatalf("info[%d] holds the record of block %d", id, bi.id)
		}
	}
	resolves := func(where string, bi *blockInfo) {
		t.Helper()
		if got := c.blockRecord(bi.id); got != bi && !bi.detached {
			t.Fatalf("%s holds a record of block %d that info does not", where, bi.id)
		}
	}
	if b, ok := c.binder.(*PolicyBinder); ok {
		for _, bi := range b.pending {
			if bi.inPending {
				resolves("binder pending list", bi)
			}
		}
	}
	for _, s := range c.slaves {
		for _, bi := range s.queue {
			resolves(fmt.Sprintf("slave %v queue", s.node.ID), bi)
		}
		for i := range s.active {
			if bi := s.active[i].bi; bi != nil {
				resolves(fmt.Sprintf("slave %v transfer", s.node.ID), bi)
			}
		}
	}
	return tracked
}

// TestRecordChunksStayValid requests more than two chunks' worth of
// blocks over several overlapping jobs and checks, before and while the
// pipeline runs, that the records are carved in request order, side by
// side within each chunk, and that every pointer into them still
// resolves.
func TestRecordChunksStayValid(t *testing.T) {
	r := newRig(t, 3, 7, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "a", 900)
	r.mkFile(t, "b", 900)
	r.mkFile(t, "c", 900)
	jobs := []struct {
		job      JobID
		files    []string
		implicit bool
	}{
		{1, []string{"a"}, false},
		{2, []string{"a", "b"}, true},
		{3, []string{"c"}, false},
		{4, []string{"b", "c"}, true},
	}
	for _, j := range jobs {
		if err := r.c.Migrate(j.job, j.files, j.implicit); err != nil {
			t.Fatal(err)
		}
	}
	const blocks = 2700
	if blocks <= 2*recordChunk {
		t.Fatalf("%d blocks fill no more than two chunks", blocks)
	}
	if n := checkRecords(t, r.c); n != blocks {
		t.Fatalf("info tracks %d records, want %d", n, blocks)
	}
	// Files are created in order, so request order is id order here.
	ordered := r.c.info[:blocks]
	if gaps := chunkGaps(ordered); gaps != 0 {
		t.Errorf("%d records sit apart from the record before them in their chunk", gaps)
	}
	if got := r.c.Stats().Requested; got != blocks {
		t.Errorf("requested %d blocks, want %d", got, blocks)
	}
	for _, step := range []time.Duration{time.Second, 30 * time.Second, 5 * time.Minute} {
		r.eng.RunFor(step)
		checkRecords(t, r.c)
	}
	if r.c.Stats().Migrated == 0 {
		t.Error("nothing migrated")
	}
	r.c.Shutdown()
}

// TestRestartMasterKeepsDetachedRecords: a master restart forgets its
// records, but the slaves still hold pointers to the ones in flight.
// Those detached records must stay intact, under their old ids and
// states, while the new master carves fresh records for the same
// blocks and for new ones.
func TestRestartMasterKeepsDetachedRecords(t *testing.T) {
	r := newRig(t, 5, 4, NewDYRSBinder(), nil, DefaultConfig())
	old := r.mkFile(t, "old", 300)
	if err := r.c.Migrate(1, []string{"old"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunFor(20 * time.Second)

	type snap struct {
		bi    *blockInfo
		id    int
		state blockState
	}
	var before []snap
	for _, id := range old.Blocks {
		bi := r.c.blockRecord(id)
		before = append(before, snap{bi, int(bi.id), bi.state})
	}
	var detached []snap
	r.c.RestartMaster()
	for _, s := range before {
		if s.state != statePending {
			detached = append(detached, s)
		}
	}
	if len(detached) == 0 || len(detached) == len(before) {
		t.Fatalf("%d of %d records detached; the test needs some of each", len(detached), len(before))
	}
	for _, s := range detached {
		if !s.bi.detached || s.bi.state != s.state {
			t.Fatalf("restart changed detached record %d: %v -> %v, detached %v", s.id, s.state, s.bi.state, s.bi.detached)
		}
	}

	r.mkFile(t, "new", 300)
	if err := r.c.Migrate(2, []string{"old", "new"}, false); err != nil {
		t.Fatal(err)
	}
	for _, s := range before {
		if r.c.blockRecord(dfs.BlockID(s.id)) == s.bi {
			t.Fatalf("block %d re-requested after the restart reuses its old record", s.id)
		}
		if int(s.bi.id) != s.id {
			t.Fatalf("a new record overwrote the old record of block %d (now block %d)", s.id, s.bi.id)
		}
	}
	for _, s := range detached {
		if !s.bi.detached {
			t.Fatalf("detached record %d lost its mark", s.id)
		}
	}
	r.eng.RunFor(10 * time.Minute)
	for _, s := range detached {
		if int(s.bi.id) != s.id || !s.bi.detached {
			t.Fatalf("detached record %d changed identity: block %d, detached %v", s.id, s.bi.id, s.bi.detached)
		}
	}
	checkRecords(t, r.c)
	r.c.Shutdown()
}

// TestImplicitMarkMerging pins how repeated requests of one job combine
// their implicit-evict flags: an implicit request marks a job that
// already references the block, and a later explicit request does not
// clear the mark. A marked job's read drops its reference and so
// releases the block; an unmarked job's read does not.
func TestImplicitMarkMerging(t *testing.T) {
	for _, tc := range []struct {
		name      string
		flags     []bool
		releasing bool
	}{
		{"explicit", []bool{false}, false},
		{"explicit-then-implicit", []bool{false, true}, true},
		{"implicit-then-explicit", []bool{true, false}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, 4, NewDYRSBinder(), nil, DefaultConfig())
			f := r.mkFile(t, "in", 2)
			for _, implicit := range tc.flags {
				if err := r.c.Migrate(1, []string{"in"}, implicit); err != nil {
					t.Fatal(err)
				}
			}
			id := f.Blocks[0]
			bi := r.c.blockRecord(id)
			if len(bi.refs) != 1 {
				t.Fatalf("block references %d jobs, want 1", len(bi.refs))
			}
			r.c.NoteRead(1, id)
			if released := bi.state == stateNone; released != tc.releasing {
				t.Errorf("read released the block: %v, want %v (state %v)", released, tc.releasing, bi.state)
			}
			wantRefs := 1
			if tc.releasing {
				wantRefs = 0
			}
			if len(bi.refs) != wantRefs {
				t.Errorf("block references %d jobs after the read, want %d", len(bi.refs), wantRefs)
			}
			r.c.Shutdown()
		})
	}
}

// TestMigrateRecordAllocs: a fresh Migrate of a 4,096-block job
// allocates each new block only its reference set's array. Records
// come from chunks, one allocation per 1,024 blocks, and the rest is a
// constant (35 allocations here): the job's id list and the binder's
// pending list growing, FileBlockIDs' result and the slaves' kick.
func TestMigrateRecordAllocs(t *testing.T) {
	const blocks = 4096
	r := newRig(t, 1, 7, NewDYRSBinder(), nil, DefaultConfig())
	for _, name := range []string{"warm", "measured"} {
		r.mkFile(t, name, blocks)
	}
	job := JobID(0)
	allocs := testing.AllocsPerRun(1, func() {
		job++
		name := "warm"
		if job > 1 {
			name = "measured"
		}
		if err := r.c.Migrate(job, []string{name}, true); err != nil {
			t.Fatal(err)
		}
	})
	const constant = 64
	if limit := blocks + blocks/recordChunk + constant; allocs > float64(limit) {
		t.Errorf("Migrate of a fresh %d-block job allocates %.0f objects, want <= %d", blocks, allocs, limit)
	}
	if got := r.c.Stats().Requested; got != 2*blocks {
		t.Errorf("requested %d blocks, want %d", got, 2*blocks)
	}
	r.c.Shutdown()
}

// TestReRequestBeforePassQueuesOnce: a block released while pending
// leaves a tombstone in the binder's list until the next full pass. A
// job that requests it again before that pass must revive the entry,
// not list the block a second time, or Algorithm 1 would assign it
// twice and count its migration twice in its target's finish time.
func TestReRequestBeforePassQueuesOnce(t *testing.T) {
	b := NewDYRSBinder()
	r := newRig(t, 1, 4, b, nil, DefaultConfig())
	r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	r.c.Evict(1)
	if err := r.c.Migrate(2, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	pending, _, _, _ := r.c.StateCounts()
	if got := r.c.PendingBlocks(); got != 8 || pending != 8 {
		t.Fatalf("binder holds %d pending blocks and the master counts %d, want 8 and 8", got, pending)
	}
	if len(b.pending) != 8 {
		t.Errorf("pending list has %d entries, want 8", len(b.pending))
	}
	checkRecords(t, r.c)
	r.eng.RunUntil(sim.Time(5 * time.Minute))
	if st := r.c.Stats(); st.Requested != 16 || st.Dropped != 8 || st.Migrated != 8 {
		t.Errorf("requested %d, dropped %d, migrated %d; want 16, 8, 8", st.Requested, st.Dropped, st.Migrated)
	}
	r.c.Shutdown()
}

// TestRecycledMigrateAllocs: records released by eviction are reused,
// together with their reference sets' arrays. After a 4,096-block job
// has migrated, been read and been evicted, a fresh Migrate of a second
// 4,096-block job allocates no chunk and no reference-set array: only
// the per-call constant TestMigrateRecordAllocs allows. The first job
// reads each block as it lands (implicit eviction), so the nodes'
// buffers stay nearly empty.
func TestRecycledMigrateAllocs(t *testing.T) {
	const blocks = 4096
	cfg := DefaultConfig()
	cfg.DisableEstimateSeries = true
	r := newRig(t, 1, 7, NewDYRSBinder(), nil, cfg)
	for _, name := range []string{"first", "second"} {
		r.mkFile(t, name, blocks)
	}
	r.c.OnMigrated(func(id dfs.BlockID, _ cluster.NodeID, _ sim.Time) { r.c.NoteRead(1, id) })
	job := JobID(0)
	allocs := testing.AllocsPerRun(1, func() {
		job++
		if job > 1 {
			if err := r.c.Migrate(job, []string{"second"}, true); err != nil {
				t.Fatal(err)
			}
			return
		}
		// The warm-up run, which AllocsPerRun does not count.
		if err := r.c.Migrate(job, []string{"first"}, true); err != nil {
			t.Fatal(err)
		}
		r.eng.RunFor(time.Hour)
		if got := r.c.Stats().Migrated; got != blocks {
			t.Fatalf("first job migrated %d blocks, want %d", got, blocks)
		}
		r.c.Evict(job)
	})
	const constant = 64
	if allocs > constant {
		t.Errorf("Migrate of %d blocks after %d were released allocates %.0f objects, want <= %d", blocks, blocks, allocs, constant)
	}
	if got := r.c.Stats().Requested; got != 2*blocks {
		t.Errorf("requested %d blocks, want %d", got, 2*blocks)
	}
	if n := checkRecords(t, r.c); n != blocks {
		t.Errorf("info tracks %d records, want %d", n, blocks)
	}
	r.c.Shutdown()
}
