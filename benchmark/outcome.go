package main

import (
	"fmt"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
)

// outcome is what one rep of a workload returns. Workload functions start from one
// attempted and one failed operation, which stands for a rep that fails
// before it knows how many operations it has.
type outcome struct {
	row       any                // canonical output row; its JSON digest must repeat
	attempted int                // operations the rep attempted
	failed    int                // operations that did not complete
	events    uint64             // simulation events fired
	counts    map[string]float64 // per-layer counters read from the model
}

// endChecks are the end-of-run invariants shared by the workloads that
// run the dfs and migration layers: the block tables are consistent,
// nothing stays buffered after the drain, the master tracks no block,
// and every migration request ended as migrated or dropped.
func endChecks(fs *dfs.FS, coord *migration.Coordinator, led *ledger) error {
	led.enter(seamFsck)
	errs := fs.Fsck()
	led.exit()
	if len(errs) > 0 {
		return fmt.Errorf("fsck found %d issue(s), first: %v", len(errs), errs[0])
	}
	if n := fs.MemReplicaCount(); n != 0 {
		return fmt.Errorf("%d blocks still buffered after the drain", n)
	}
	if p, q, mg, in := coord.StateCounts(); p != 0 || q != 0 || mg != 0 || in != 0 {
		return fmt.Errorf("non-zero final state counts %d/%d/%d/%d", p, q, mg, in)
	}
	if st := coord.Stats(); st.Requested != st.Migrated+st.Dropped {
		return fmt.Errorf("requested %d != migrated %d + dropped %d", st.Requested, st.Migrated, st.Dropped)
	}
	return nil
}

// migrationCounts records the migration and policy layers' counters.
func migrationCounts(c map[string]float64, coord *migration.Coordinator, b *migration.PolicyBinder, pol *timedPolicy) {
	st := coord.Stats()
	c["migration.requested"] = float64(st.Requested)
	c["migration.migrated"] = float64(st.Migrated)
	c["migration.missed_reads"] = float64(st.MissedReads)
	if st.Migrated > 0 {
		c["migration.hits_per_migrated"] = float64(st.MemoryHits) / float64(st.Migrated)
	}
	c["migration.alg1_passes"] = float64(b.Updates)
	c["migration.alg1_skips"] = float64(b.SkippedUpdates)
	if pol != nil {
		c["policy.unassigned"] = float64(pol.unassigned)
	}
}

// readCounts records the share of DataNode reads served from memory.
func readCounts(c map[string]float64, fs *dfs.FS) {
	var mem, all int
	for i := 0; i < fs.Cluster().Size(); i++ {
		dn := fs.DataNode(cluster.NodeID(i))
		mem += dn.MemReads
		all += dn.MemReads + dn.DiskReads
	}
	if all > 0 {
		c["dfs.read_mem_frac"] = float64(mem) / float64(all)
	}
}
