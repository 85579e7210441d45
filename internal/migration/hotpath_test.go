package migration

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// TestSlaveTransferAllocs: with the pipeline warm, a DYRS slave's
// transfer cycle (kick → MigrateToMemory → finish → onMigrated → kick),
// together with the heartbeats, pulls and Algorithm 1 passes around it,
// allocates nothing. AllocsPerRun(1, ...) reports the exact count of 30
// measured seconds, which hold about 30 transfers. Each migrated block
// is read, and so released, as soon as it lands (implicit eviction), so
// the node's resident set stays flat instead of growing its lists.
//
// The warm-up runs to 70 s, past the clock's crossing of 2^36 ns
// (68.7 s): the radix event queue allocates a bucket the first time the
// clock crosses each new power of two, and the next crossing (137 s)
// lies beyond the measured seconds.
func TestSlaveTransferAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableEstimateSeries = true
	r := newRig(t, 1, 1, NewDYRSBinder(), nil, cfg)
	r.mkFile(t, "in", 150)
	r.c.OnMigrated(func(id dfs.BlockID, _ cluster.NodeID, _ sim.Time) { r.c.NoteRead(1, id) })
	if err := r.c.Migrate(1, []string{"in"}, true); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(70 * time.Second))
	before := r.c.Stats().Migrated
	if allocs := testing.AllocsPerRun(1, func() { r.eng.RunFor(30 * time.Second) }); allocs != 0 {
		t.Errorf("transfer cycle allocates %.0f objects per 30 s, want 0", allocs)
	}
	if n := r.c.Stats().Migrated - before; n < 50 {
		t.Errorf("only %d migrations in 60 s", n)
	}
	r.c.Shutdown()
}

// TestUpdateTargetsAllocs: the Algorithm 1 targeting pass allocates
// nothing once its pull buckets have grown. The setup is
// BenchmarkAlgorithm1UpdateTargets': 200 pending blocks of a 50 GB file
// on 7 nodes. Each measured run makes maxSkippedPasses+1 calls, so it
// holds one full pass besides the skipped ones.
func TestUpdateTargetsAllocs(t *testing.T) {
	b := NewDYRSBinder()
	r := newRig(t, 1, 7, b, nil, DefaultConfig())
	r.mkFile(t, "big", 200)
	if err := r.c.Migrate(1, []string{"big"}, false); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	before := b.Updates
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i <= maxSkippedPasses; i++ {
			b.UpdateTargets()
		}
	})
	if allocs != 0 {
		t.Errorf("UpdateTargets allocates %.2f objects per %d calls, want 0", allocs, maxSkippedPasses+1)
	}
	if passes := b.Updates - before; passes < runs {
		t.Errorf("%d full passes in %d runs, want one per run", passes, runs)
	}
	if n := b.PendingCount(); n != 200 {
		t.Errorf("pending = %d, want 200", n)
	}
	r.c.Shutdown()
}

// TestIgnemInProgressInflationDeterministic: under Ignem, one kick
// starts up to six transfers at the same instant, so they tie on
// elapsed time at every heartbeat. With mixed block sizes (files whose
// last block is short) the in-progress estimate update depends on which
// tied transfer is picked; picking by slot order keeps the estimator
// series and the trace identical run over run.
func TestIgnemInProgressInflationDeterministic(t *testing.T) {
	run := func() (string, string) {
		eng := sim.NewEngine(5)
		tr := trace.New(eng)
		cl := cluster.New(eng, 2, nil)
		fsCfg := dfs.DefaultConfig()
		fsCfg.Replication = 1
		fs := dfs.New(cl, fsCfg)
		cfg := DefaultConfig()
		cfg.CancelOnMissedRead = false
		cfg.IOWeight = 1
		cfg.MaxConcurrent = 6
		c := NewCoordinator(fs, cfg, NewPolicyBinder(policy.NewIgnem()))
		var files []string
		for i, blocks := range []float64{1.5, 2.25, 1.75, 2.5, 1.125, 3.5} {
			name := fmt.Sprintf("f%d", i)
			if _, err := fs.CreateFile(name, sim.Bytes(blocks*float64(fsCfg.BlockSize))); err != nil {
				t.Fatal(err)
			}
			files = append(files, name)
		}
		if err := c.Migrate(1, files, false); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(5 * time.Minute))
		if st := c.Stats(); st.Migrated != st.Requested {
			t.Fatalf("migrated %d of %d", st.Migrated, st.Requested)
		}
		c.Shutdown()
		var series bytes.Buffer
		for n := cluster.NodeID(0); n < 2; n++ {
			fmt.Fprintln(&series, c.EstimateSeries(n).Points())
		}
		var doc bytes.Buffer
		if err := tr.WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		return series.String(), fmt.Sprintf("%x", sha256.Sum256(doc.Bytes()))
	}
	series, hash := run()
	for i := 1; i < 20; i++ {
		if s, h := run(); s != series || h != hash {
			t.Fatalf("run %d diverged from run 0 (series equal: %v, trace %s vs %s)", i, s == series, h, hash)
		}
	}
}
