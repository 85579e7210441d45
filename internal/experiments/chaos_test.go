package experiments

import (
	"fmt"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// Chaos tests: the paper's failure-resilience claims (§III-C) exercised
// end-to-end — "when there is a failure, DYRS reverts to the default
// behavior of the file system with no migration. The only adverse effect
// is the loss of the speedup from migration."

// submitBatch submits n small jobs spaced over the run.
func submitBatch(t *testing.T, env *Env, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("chaos-%d", i)
		if err := env.CreateInput(name, sim.Bytes(1+i%4)*sim.GB); err != nil {
			t.Fatal(err)
		}
		spec := workload.SortSpec(name, 4)
		spec.ExtraLeadTime = 5 * time.Second
		env.FW.SubmitAt(sim.Time(sim.Duration(i)*3*time.Second), spec, nil)
	}
}

func TestChaosSlaveProcessCrashes(t *testing.T) {
	env := NewEnv(DYRS, DefaultOptions(11))
	submitBatch(t, env, 10)
	// Crash-and-restart a different slave process every 8 seconds during
	// the run. Buffers are lost; the system must keep completing jobs.
	for i := 0; i < 5; i++ {
		i := i
		env.Eng.At(sim.Time(sim.Duration(5+8*i)*time.Second), func() {
			env.Coord.RestartSlaveProcess(cluster.NodeID(i % env.Cl.Size()))
		})
	}
	if err := env.WaitJobs(10, Hour); err != nil {
		t.Fatal(err)
	}
	for _, j := range env.FW.Results() {
		if j.Duration() <= 0 {
			t.Errorf("job %s has bogus duration", j.Spec.Name)
		}
	}
	// No leaked buffers once everything evicted.
	env.Eng.RunFor(5 * time.Minute)
	if used := env.FS.TotalMemUsed(); used != 0 {
		t.Errorf("leaked %d buffered bytes after crashes", used)
	}
	for _, err := range env.FS.Fsck() {
		t.Errorf("fsck after crashes: %v", err)
	}
}

func TestChaosMasterRestartMidWorkload(t *testing.T) {
	env := NewEnv(DYRS, DefaultOptions(12))
	submitBatch(t, env, 10)
	env.Eng.At(sim.Time(12*time.Second), func() { env.Coord.RestartMaster() })
	if err := env.WaitJobs(10, Hour); err != nil {
		t.Fatal(err)
	}
	// Jobs submitted after the fail-over still get migration service.
	if err := env.CreateInput("post-failover", 2*sim.GB); err != nil {
		t.Fatal(err)
	}
	spec := workload.SortSpec("post-failover", 4)
	spec.ExtraLeadTime = 15 * time.Second
	j, err := env.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem := 0
	for _, tr := range j.Tasks {
		if tr.Source.FromMemory() {
			mem++
		}
	}
	if mem == 0 {
		t.Error("no memory reads after master fail-over: migration dead")
	}
}

func TestChaosNodeDeath(t *testing.T) {
	env := NewEnv(DYRS, DefaultOptions(13))
	submitBatch(t, env, 8)
	env.Eng.At(sim.Time(10*time.Second), func() {
		env.Cl.KillNode(3)
		env.Coord.RestartSlaveProcess(3) // its buffers are gone with it
	})
	if err := env.WaitJobs(8, Hour); err != nil {
		t.Fatal(err)
	}
	// With 3-way replication one node's death leaves every block
	// readable; all jobs completed above. The dead node must not be
	// holding queued migration work.
	if env.Cl.Node(3).Alive() {
		t.Fatal("node 3 should be dead")
	}
}

func TestChaosComparableToFailureFree(t *testing.T) {
	// A slave crash should cost speedup, not correctness: the workload's
	// total duration with one crash stays within 2x of the failure-free
	// run (generous bound; typically it is nearly identical).
	run := func(crash bool) float64 {
		env := NewEnv(DYRS, DefaultOptions(14))
		submitBatch(t, env, 8)
		if crash {
			env.Eng.At(sim.Time(8*time.Second), func() {
				env.Coord.RestartSlaveProcess(2)
			})
		}
		if err := env.WaitJobs(8, Hour); err != nil {
			t.Fatal(err)
		}
		var last sim.Time
		for _, j := range env.FW.Results() {
			if j.Finished > last {
				last = j.Finished
			}
		}
		return last.Seconds()
	}
	clean := run(false)
	crashed := run(true)
	if crashed > clean*2 {
		t.Errorf("crash run %.1fs vs clean %.1fs: failure hurt more than the lost speedup", crashed, clean)
	}
}

// Property: arbitrary interleavings of slave crashes, master restarts
// and node deaths never corrupt the file system's internal state.
func TestChaosPropertyFsckAlwaysClean(t *testing.T) {
	for seed := int64(50); seed < 56; seed++ {
		seed := seed
		env := NewEnv(DYRS, DefaultOptions(seed))
		submitBatch(t, env, 6)
		rng := env.Eng.Rand()
		for i := 0; i < 6; i++ {
			at := sim.Time(sim.Duration(2+rng.Intn(30)) * time.Second)
			action := rng.Intn(3)
			node := cluster.NodeID(rng.Intn(env.Cl.Size()))
			env.Eng.At(at, func() {
				switch action {
				case 0:
					env.Coord.RestartSlaveProcess(node)
				case 1:
					env.Coord.RestartMaster()
				case 2:
					if len(env.Cl.AliveNodes()) > 3 {
						env.Cl.KillNode(node)
						env.Coord.RestartSlaveProcess(node)
					}
				}
			})
		}
		env.Eng.RunUntil(sim.Time(5 * time.Minute))
		for _, err := range env.FS.Fsck() {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
