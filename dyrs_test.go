package dyrs_test

import (
	"testing"
	"time"

	"dyrs"
)

// Facade tests: exercise the library exactly the way the README and the
// examples do.

func TestFacadeQuickstart(t *testing.T) {
	env := dyrs.NewEnv(dyrs.PolicyDYRS, dyrs.DefaultOptions(1))
	defer env.Close()
	if err := env.CreateInput("logs", 2*dyrs.GB); err != nil {
		t.Fatal(err)
	}
	spec := env.Prepare(dyrs.SortSpec("logs", 4, true))
	spec.ExtraLeadTime = 10 * time.Second
	job, err := env.FW.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.WaitJob(job, time.Hour); err != nil {
		t.Fatal(err)
	}
	if job.Duration() <= 0 || job.MapPhase() <= 0 {
		t.Errorf("bogus timings: %v %v", job.Duration(), job.MapPhase())
	}
	mem := 0
	for _, tr := range job.Tasks {
		if tr.Source.FromMemory() {
			mem++
		}
	}
	if mem == 0 {
		t.Error("quickstart migration produced no memory reads")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() float64 {
		env := dyrs.NewEnv(dyrs.PolicyDYRS, dyrs.DefaultOptions(99))
		defer env.Close()
		if err := env.CreateInput("x", 3*dyrs.GB); err != nil {
			t.Fatal(err)
		}
		spec := env.Prepare(dyrs.SortSpec("x", 4, true))
		spec.ExtraLeadTime = 5 * time.Second
		j, err := env.FW.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.WaitJob(j, time.Hour); err != nil {
			t.Fatal(err)
		}
		return j.Duration().Seconds()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestFacadeQueriesAndPolicies(t *testing.T) {
	if got := len(dyrs.TPCDSQueries()); got != 10 {
		t.Errorf("queries = %d", got)
	}
	if len(dyrs.AllPolicies) != 4 {
		t.Errorf("policies = %d", len(dyrs.AllPolicies))
	}
	if !dyrs.PolicyDYRS.Migrates() || dyrs.PolicyRAM.Migrates() {
		t.Error("Migrates wrong")
	}
}

func TestFacadeTraceEntryPoint(t *testing.T) {
	rep := dyrs.RunTrace(5)
	if rep.Trace.MeanUtilization() <= 0 {
		t.Error("empty trace from facade")
	}
}

func TestFacadeRegistryAndParallelRun(t *testing.T) {
	reg := dyrs.Registry()
	if len(reg) == 0 {
		t.Fatal("empty registry")
	}
	rep, err := dyrs.RunAllJobs(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 7 || len(rep.Hive) == 0 || len(rep.Iterative) == 0 {
		t.Fatalf("parallel report incomplete: seed=%d", rep.Seed)
	}
	// Fig 4's calibration floor: DYRS speeds Hive queries up on average.
	var sum float64
	for _, q := range rep.Hive {
		sum += q.Speedup
	}
	if mean := sum / float64(len(rep.Hive)); mean < 0.1 {
		t.Errorf("DYRS mean Hive speedup %.2f suspiciously low", mean)
	}
}
