package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/sim"
)

func TestCollectorSamplesUtilization(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col := Start(cl, fs, time.Second)

	// Saturate node 0's disk for 5s; node 1 stays idle.
	cl.Node(0).Disk.Start(5*130*sim.MB, nil)
	eng.RunUntil(sim.Time(10 * time.Second))
	col.Stop()

	busy := col.MeanDiskUtilization(0)
	idle := col.MeanDiskUtilization(1)
	if busy < 0.4 || busy > 0.7 {
		t.Errorf("node0 mean util = %.2f, want ~0.5", busy)
	}
	if idle != 0 {
		t.Errorf("node1 util = %.2f, want 0", idle)
	}
	if col.diskUtil[0].Len() != 10 {
		t.Errorf("samples = %d, want 10", col.diskUtil[0].Len())
	}
	// First 5 samples ~1.0, rest ~0.
	pts := col.diskUtil[0].Points()
	if pts[0].V < 0.95 || pts[9].V > 0.05 {
		t.Errorf("window utilization wrong: first=%.2f last=%.2f", pts[0].V, pts[9].V)
	}
}

func TestCollectorMemorySeries(t *testing.T) {
	eng := sim.NewEngine(2)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col := Start(cl, fs, time.Second)
	f, _ := fs.CreateFile("x", 256*sim.MB)
	eng.Schedule(2500*time.Millisecond, func() { fs.RegisterMem(f.Blocks[0], 0) })
	eng.RunUntil(sim.Time(5 * time.Second))
	col.Stop()
	pts := col.memUsed[0].Points()
	if pts[1].V != 0 {
		t.Errorf("early sample nonzero: %v", pts[1].V)
	}
	if pts[4].V != float64(256*sim.MB) {
		t.Errorf("late sample = %v, want 256MB", pts[4].V)
	}
}

func TestRenderDiskAndCSV(t *testing.T) {
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, 2, nil)
	cfg := dfs.DefaultConfig()
	cfg.Replication = 2
	fs := dfs.New(cl, cfg)
	col := Start(cl, fs, time.Second)
	cl.Node(1).Disk.Start(3*130*sim.MB, nil)
	eng.RunUntil(sim.Time(6 * time.Second))
	col.Stop()

	var chart bytes.Buffer
	if err := col.RenderDisk(&chart, 20); err != nil {
		t.Fatal(err)
	}
	out := chart.String()
	if !strings.Contains(out, "node0") || !strings.Contains(out, "node1") {
		t.Errorf("chart missing nodes:\n%s", out)
	}

	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + (disk+nic+mem) * 2 nodes * 6 samples
	want := 1 + 3*2*6
	if len(lines) != want {
		t.Errorf("csv lines = %d, want %d", len(lines), want)
	}
	if lines[0] != "series,seconds,value" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestCollectorNilFS(t *testing.T) {
	eng := sim.NewEngine(4)
	cl := cluster.New(eng, 1, nil)
	col := Start(cl, nil, time.Second)
	eng.RunUntil(sim.Time(3 * time.Second))
	col.Stop()
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if col.nicUtil[0].Len() != 3 {
		t.Errorf("nic samples = %d", col.nicUtil[0].Len())
	}
}

func TestInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval accepted")
		}
	}()
	eng := sim.NewEngine(5)
	Start(cluster.New(eng, 1, nil), nil, 0)
}
