// Package telemetry samples cluster state over a simulation run into
// per-node time series: disk utilization, buffered migration bytes, NIC
// utilization. It is the simulated analogue of the dstat/iostat traces
// the paper's figures were drawn from, and powers run inspection beyond
// the canned experiments.
package telemetry

import (
	"fmt"
	"io"
	"strings"

	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/metrics"
	"dyrs/internal/sim"
)

// Collector periodically samples every node.
type Collector struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	fs     *dfs.FS
	ticker *sim.Ticker

	diskUtil []*metrics.TimeSeries // fraction busy since last sample
	memUsed  []*metrics.TimeSeries // buffered bytes
	nicUtil  []*metrics.TimeSeries

	lastDiskBusy []sim.Duration
	lastNICBusy  []sim.Duration
	lastSample   sim.Time
	interval     sim.Duration
}

// Start begins sampling the cluster at the given interval. fs may be nil
// if memory series are not needed.
func Start(cl *cluster.Cluster, fs *dfs.FS, interval sim.Duration) *Collector {
	if interval <= 0 {
		panic("telemetry: interval must be positive")
	}
	c := &Collector{
		eng:          cl.Engine(),
		cl:           cl,
		fs:           fs,
		interval:     interval,
		lastDiskBusy: make([]sim.Duration, cl.Size()),
		lastNICBusy:  make([]sim.Duration, cl.Size()),
	}
	c.lastSample = c.eng.Now()
	for _, n := range cl.Nodes() {
		c.diskUtil = append(c.diskUtil, metrics.NewTimeSeries("disk:"+n.ID.String()))
		c.memUsed = append(c.memUsed, metrics.NewTimeSeries("mem:"+n.ID.String()))
		c.nicUtil = append(c.nicUtil, metrics.NewTimeSeries("nic:"+n.ID.String()))
		c.lastDiskBusy[int(n.ID)] = n.Disk.BusyTime()
		c.lastNICBusy[int(n.ID)] = n.NIC.BusyTime()
	}
	c.ticker = sim.NewTicker(c.eng, interval, c.sample)
	return c
}

// Stop halts sampling.
func (c *Collector) Stop() { c.ticker.Stop() }

func (c *Collector) sample() {
	now := c.eng.Now()
	window := now.Sub(c.lastSample)
	if window <= 0 {
		return
	}
	tSec := now.Seconds()
	for _, n := range c.cl.Nodes() {
		i := int(n.ID)
		diskBusy := n.Disk.BusyTime()
		nicBusy := n.NIC.BusyTime()
		c.diskUtil[i].Record(tSec, float64(diskBusy-c.lastDiskBusy[i])/float64(window))
		c.nicUtil[i].Record(tSec, float64(nicBusy-c.lastNICBusy[i])/float64(window))
		c.lastDiskBusy[i] = diskBusy
		c.lastNICBusy[i] = nicBusy
		if c.fs != nil {
			c.memUsed[i].Record(tSec, float64(c.fs.DataNode(n.ID).MemUsed()))
		}
	}
	c.lastSample = now
}

// MeanDiskUtilization reports the time-weighted mean disk utilization of
// a node over the collected window.
func (c *Collector) MeanDiskUtilization(id cluster.NodeID) float64 {
	return c.diskUtil[int(id)].MeanValue()
}

// RenderDisk writes an ASCII strip chart of every node's disk
// utilization (one row per node, one column per sample, 0-9 scale).
func (c *Collector) RenderDisk(w io.Writer, maxCols int) error {
	for _, n := range c.cl.Nodes() {
		pts := c.diskUtil[int(n.ID)].Downsample(maxCols)
		var b strings.Builder
		for _, p := range pts {
			level := int(p.V * 9.999)
			if level > 9 {
				level = 9
			}
			if level < 0 {
				level = 0
			}
			b.WriteByte(byte('0' + level))
		}
		if _, err := fmt.Fprintf(w, "%-6s disk |%s| mean %4.0f%%\n",
			n.ID, b.String(), c.MeanDiskUtilization(n.ID)*100); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits every sample: series name, time seconds, value.
func (c *Collector) WriteCSV(w io.Writer) error {
	write := func(ts *metrics.TimeSeries) error {
		for _, p := range ts.Points() {
			if _, err := fmt.Fprintf(w, "%s,%.3f,%.6f\n", ts.Name(), p.T, p.V); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, "series,seconds,value"); err != nil {
		return err
	}
	for i := range c.diskUtil {
		if err := write(c.diskUtil[i]); err != nil {
			return err
		}
		if err := write(c.nicUtil[i]); err != nil {
			return err
		}
		if c.fs != nil {
			if err := write(c.memUsed[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
