package experiments

import (
	"fmt"
	"time"

	"dyrs/internal/compute"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
)

// MotivationReport reproduces the paper's §I micro-comparison: how much
// faster block reads are from RAM than from disk and SSD, and how much
// faster map tasks run when inputs are pinned in RAM.
type MotivationReport struct {
	// Block read durations, seconds, for a single 256MB block on an
	// otherwise idle node, and under map-phase-like disk contention.
	DiskIdle, DiskBusy float64
	SSDIdle            float64
	MemLocal           float64
	MemRemote          float64
	// MapperDisk/MapperRAM are mean map task durations for a trace-like
	// job with inputs on disk vs pinned in RAM.
	MapperDisk, MapperRAM float64
}

// RAMvsSSD reports the speedup of RAM over SSD reads (paper: 7x).
func (m MotivationReport) RAMvsSSD() float64 { return m.SSDIdle / m.MemLocal }

// MapperSpeedup reports the map task speedup from pinned inputs
// (paper: 10x).
func (m MotivationReport) MapperSpeedup() float64 { return m.MapperDisk / m.MapperRAM }

// String renders the comparison.
func (m MotivationReport) String() string {
	t := NewTable("Motivation (§I) — 256MB block read latency by medium",
		"medium", "seconds", "RAM-local speedup")
	row := func(name string, v float64) {
		t.AddRow(name, fmt.Sprintf("%.3f", v), fmt.Sprintf("%.0fx", v/m.MemLocal))
	}
	row("disk (idle)", m.DiskIdle)
	row("disk (map-phase contention)", m.DiskBusy)
	row("ssd (idle)", m.SSDIdle)
	row("memory (remote, 10Gbps)", m.MemRemote)
	row("memory (local)", m.MemLocal)
	return t.String() + fmt.Sprintf(
		"map tasks: %.1fs from disk vs %.1fs from RAM (%.1fx; paper: 10x)\n",
		m.MapperDisk, m.MapperRAM, m.MapperSpeedup())
}

// ssdBandwidth is the flash throughput behind the §I SSD read, in
// bytes/sec. The file system keeps every block on disk, so the SSD read
// is timed in closed form on an otherwise idle device.
const ssdBandwidth = 500 * float64(sim.MB)

// RunMotivation measures the §I micro-comparison on the simulated
// hardware.
func RunMotivation(seed int64) (MotivationReport, error) {
	var rep MotivationReport
	env := NewEnv(HDFS, DefaultOptions(seed))
	defer env.Close()
	fs := env.FS
	block := fs.Config().BlockSize

	readOnce := func(name string, busy int, mem bool, remote bool) (float64, error) {
		f, err := fs.CreateFile(name, block)
		if err != nil {
			return 0, err
		}
		b := fs.Block(f.Blocks[0])
		server := b.Replicas[0]
		at := server
		if mem {
			fs.RegisterMem(b.ID, server)
			if remote {
				at = (server + 1) % 7
			}
		}
		// Optional competing foreground reads on the serving device.
		disk := env.Cl.Node(server).Disk
		var load []*sim.Flow
		for i := 0; i < busy; i++ {
			load = append(load, disk.StartLoad(1))
		}
		var dur float64
		err = fs.ReadBlock(at, b.ID, func(r dfs.ReadResult) { dur = r.Duration().Seconds() })
		if err != nil {
			return 0, err
		}
		env.Eng.RunFor(10 * time.Minute)
		for _, l := range load {
			l.Cancel()
		}
		if mem {
			fs.DropMem(b.ID, server)
		}
		return dur, nil
	}

	var err error
	if rep.DiskIdle, err = readOnce("m-disk", 0, false, false); err != nil {
		return rep, err
	}
	if rep.DiskBusy, err = readOnce("m-disk-busy", 7, false, false); err != nil {
		return rep, err
	}
	// The SSD read pays the same setup latency as a disk read, then
	// streams the block.
	stream := sim.Duration(float64(block) / ssdBandwidth * float64(time.Second))
	rep.SSDIdle = (fs.Config().ReadLatency + stream).Seconds()
	if rep.MemLocal, err = readOnce("m-mem", 0, true, false); err != nil {
		return rep, err
	}
	if rep.MemRemote, err = readOnce("m-mem-remote", 0, true, true); err != nil {
		return rep, err
	}

	// Mapper speedup: one trace-like job with inputs on disk, one with
	// inputs pinned (fresh environments so runs are independent).
	mapperMean := func(policy Policy) (float64, error) {
		e := NewEnv(policy, DefaultOptions(seed))
		defer e.Close()
		if err := e.CreateInput("job-input", 10*sim.GB); err != nil {
			return 0, err
		}
		spec := e.Prepare(compute.JobSpec{
			Name:           "motivation",
			InputFiles:     []string{"job-input"},
			MapCPUPerByte:  0.8 / float64(256*sim.MB),
			MapOutputRatio: 0.2,
			Reducers:       4,
			OutputRatio:    1,
		}.DefaultOverheads())
		j, err := e.FW.Submit(spec)
		if err != nil {
			return 0, err
		}
		if err := e.WaitJob(j, Hour); err != nil {
			return 0, err
		}
		s := metrics.NewSample()
		for _, tr := range j.Tasks {
			s.Add(tr.Duration().Seconds())
		}
		return s.Mean(), nil
	}
	if rep.MapperDisk, err = mapperMean(HDFS); err != nil {
		return rep, err
	}
	if rep.MapperRAM, err = mapperMean(RAM); err != nil {
		return rep, err
	}
	return rep, nil
}

// motivationExperiment registers the §I read-speedup micro-comparison.
func motivationExperiment() Experiment {
	return Experiment{
		Name:    "motivation",
		Summary: "§I micro-comparison: RAM vs SSD vs disk block reads",
		Run:     func(seed int64) (any, error) { return RunMotivation(seed) },
		Render: func(result any, sel Selection) []string {
			return []string{result.(MotivationReport).String()}
		},
		Merge: func(rep *FullReport, result any) {
			rep.Motivation = result.(MotivationReport)
		},
	}
}
