package main

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// profileHz is the traced rep's CPU sampling rate. The default 100 Hz
// gives only a few hundred samples over a rep, too few to split the
// event loop by layer to a percent.
const profileHz = 1000

// meter times one rep's two phases and samples its live heap. A
// workload function calls beginSetup before it builds anything, endSetup once the model
// is built and the workload scheduled, and endSim after the drain and
// the end-of-run checks. The heap sample and the forced GC before it
// fall between the two timed phases.
type meter struct {
	led     *ledger       // nil: untraced rep
	prof    *bytes.Buffer // non-nil: CPU-profile the simulation phase
	workers int           // sharded-engine workers (0: GOMAXPROCS)
	// peakLive reports the largest live heap seen at the end of any GC
	// during the simulation phase instead of the live heap at the end of
	// set-up. The sharded workload sets it: its set-up runs inside
	// experiments.RunScaleShard, where the benchmark cannot stop.
	peakLive bool

	t0, simStart time.Time
	setup, sim   time.Duration
	liveBytes    uint64
	err          error
	// rt holds runtime readings of a traced rep: at the start of set-up,
	// and before and after the forced GC between the phases.
	rt [3]runtimeSnap

	profiling bool
	stopPoll  chan struct{}
	polled    chan uint64
}

func (m *meter) traced() bool { return m.led != nil }

func (m *meter) beginSetup() {
	if m.traced() {
		m.rt[0] = readRuntime()
	}
	m.t0 = time.Now()
	m.led.enter(seamSetup)
}

func (m *meter) endSetup() {
	m.led.exit()
	m.setup = time.Since(m.t0)
	if m.traced() {
		m.rt[1] = readRuntime()
	}
	runtime.GC()
	if m.peakLive {
		m.stopPoll, m.polled = make(chan struct{}), make(chan uint64, 1)
		go pollLiveHeap(m.stopPoll, m.polled)
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.liveBytes = ms.HeapAlloc
	}
	if m.traced() {
		m.rt[2] = readRuntime()
	}
	if m.prof != nil {
		// StartCPUProfile's own rate request fails once a rate is set and
		// prints a warning; the rate set here stays in force.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			m.err = err
		} else {
			m.profiling = true
		}
	}
	m.led.enter(seamSim)
	m.simStart = time.Now()
}

func (m *meter) endSim() {
	m.sim = time.Since(m.simStart)
	m.led.exit()
	m.stop()
}

// stop ends the CPU profile and the heap poller if they still run. The
// rep runner calls it after every workload function, so one that fails before
// endSim leaves nothing running.
func (m *meter) stop() {
	if m.profiling {
		pprof.StopCPUProfile()
		m.profiling = false
	}
	if m.stopPoll != nil {
		close(m.stopPoll)
		m.liveBytes = <-m.polled
		m.stopPoll = nil
	}
}

// pollLiveHeap samples the live heap the last GC marked until stop is
// closed, then sends the largest value seen.
func pollLiveHeap(stop <-chan struct{}, out chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var peak uint64
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			out <- peak
			return
		case <-tick.C:
		}
	}
}

// runtimeSnap is the Go runtime state a traced rep reports deltas of.
type runtimeSnap struct {
	mallocs       uint64
	gcs           uint32
	gcCPU, allCPU float64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{mallocs: ms.Mallocs, gcs: ms.NumGC,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeDelta is what the rep itself cost the runtime, given a reading
// taken after it ended: the forced GC between the phases is left out.
func (m *meter) runtimeDelta(end runtimeSnap) runtimeSnap {
	a, b, c := m.rt[0], m.rt[1], m.rt[2]
	return runtimeSnap{
		mallocs: (b.mallocs - a.mallocs) + (end.mallocs - c.mallocs),
		gcs:     (b.gcs - a.gcs) + (end.gcs - c.gcs),
		gcCPU:   (b.gcCPU - a.gcCPU) + (end.gcCPU - c.gcCPU),
		allCPU:  (b.allCPU - a.allCPU) + (end.allCPU - c.allCPU),
	}
}
