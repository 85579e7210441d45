package telemetry

import (
	"bytes"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
	"dyrs/internal/workload"
)

// Under a real migrating workload the collector must see all three
// signals: disks busy with reads and migration copies, memory filling
// with pinned blocks, and NICs carrying remote reads and shuffle.
func TestSeriesUnderMigrationTraffic(t *testing.T) {
	eng := sim.NewEngine(11)
	cl := cluster.New(eng, 4, nil)
	cfg := dfs.DefaultConfig()
	if cfg.Replication > 4 {
		cfg.Replication = 4
	}
	fs := dfs.New(cl, cfg)
	coord := migration.NewCoordinator(fs, migration.DefaultConfig(), migration.NewDYRSBinder())
	defer coord.Shutdown()
	fw := compute.New(fs, coord)
	coord.SetScheduler(fw)

	col := Start(cl, fs, time.Second)
	defer col.Stop()

	if _, err := fs.CreateFile("input", 2*sim.GB); err != nil {
		t.Fatal(err)
	}
	spec := workload.SortSpec("input", 8)
	spec.ExtraLeadTime = 5 * time.Second
	j, err := fw.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(20 * time.Minute))
	if j.State != compute.JobDone {
		t.Fatal("job did not finish")
	}
	if coord.Stats().Migrated == 0 {
		t.Fatal("no migrations happened; test exercises nothing")
	}

	var memPeak, nicPeak, diskPeak float64
	for _, n := range cl.Nodes() {
		for _, p := range col.memUsed[n.ID].Points() {
			if p.V > memPeak {
				memPeak = p.V
			}
		}
		for _, p := range col.nicUtil[n.ID].Points() {
			if p.V > nicPeak {
				nicPeak = p.V
			}
		}
		for _, p := range col.diskUtil[n.ID].Points() {
			if p.V > diskPeak {
				diskPeak = p.V
			}
		}
	}
	blockSize := float64(fs.Config().BlockSize)
	if memPeak < blockSize {
		t.Errorf("peak buffered memory %.0fB never reached one block (%.0fB); migrations invisible to telemetry", memPeak, blockSize)
	}
	if nicPeak <= 0 {
		t.Error("NIC series flat at zero despite remote reads and shuffle")
	}
	if diskPeak < 0.5 {
		t.Errorf("peak disk utilization %.2f; expected busy disks under sort+migration", diskPeak)
	}

	// Memory must drain after the job's implicit eviction.
	finalMem := 0.0
	for _, n := range cl.Nodes() {
		pts := col.memUsed[n.ID].Points()
		if len(pts) > 0 {
			finalMem += pts[len(pts)-1].V
		}
	}
	if finalMem != 0 {
		t.Errorf("buffered memory %.0fB left after job completion + eviction", finalMem)
	}
}

// Golden CSV: a fully pinned-down one-node scenario must produce this
// exact document — the CSV contract consumed by plotting scripts.
func TestWriteCSVGolden(t *testing.T) {
	eng := sim.NewEngine(12)
	cl := cluster.New(eng, 1, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 1
	fs := dfs.New(cl, cfg)
	col := Start(cl, fs, time.Second)

	// A persistent unit load saturates the disk (util exactly 1.0 per
	// window); one 256 MB block registered in memory at t=0.
	cl.Node(0).Disk.StartLoad(1)
	f, err := fs.CreateFile("x", 256*sim.MB)
	if err != nil {
		t.Fatal(err)
	}
	fs.RegisterMem(f.Blocks[0], 0)

	eng.RunUntil(sim.Time(3 * time.Second))
	col.Stop()

	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,seconds,value\n" +
		"disk:node0,1.000,1.000000\n" +
		"disk:node0,2.000,1.000000\n" +
		"disk:node0,3.000,1.000000\n" +
		"nic:node0,1.000,0.000000\n" +
		"nic:node0,2.000,0.000000\n" +
		"nic:node0,3.000,0.000000\n" +
		"mem:node0,1.000,268435456.000000\n" +
		"mem:node0,2.000,268435456.000000\n" +
		"mem:node0,3.000,268435456.000000\n"
	if got := buf.String(); got != want {
		t.Errorf("CSV mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
