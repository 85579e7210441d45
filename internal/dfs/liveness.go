package dfs

import (
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// Heartbeat-based liveness (§III-C2): "A node is marked as unavailable
// when the file system misses several consecutive heartbeats from it. If
// a read occurs before the node is marked as unavailable the client can
// fail-over to one of the available replicas."
//
// Without a liveness tracker the FS consults cluster.Node.Alive()
// directly — an oracle. EnableHeartbeats replaces the oracle with the
// NameNode's (deliberately stale) view: a dead node keeps being offered
// as a replica until its heartbeats have been missed, and reads routed
// to it pay a connect timeout before failing over.

// The tracker's settings mirror HDFS-era values scaled down.
const (
	// heartbeatInterval is the DataNode heartbeat period.
	heartbeatInterval = 3 * time.Second
	// missedBeats is how many consecutive misses mark a node dead.
	missedBeats = 3
	// connectTimeout is what a client pays before failing over from an
	// unreachable node, with or without the tracker.
	connectTimeout = time.Second
)

// liveness is the NameNode-side tracker.
type liveness struct {
	lastSeen []sim.Time
}

// EnableHeartbeats starts heartbeat-based liveness tracking. Call once,
// before failures are injected.
func (fs *FS) EnableHeartbeats() {
	lv := &liveness{lastSeen: make([]sim.Time, fs.cl.Size())}
	now := fs.eng.Now()
	for i := range lv.lastSeen {
		lv.lastSeen[i] = now
	}
	sim.NewTicker(fs.eng, heartbeatInterval, func() {
		for _, n := range fs.cl.Nodes() {
			if n.Alive() {
				lv.lastSeen[int(n.ID)] = fs.eng.Now()
			}
		}
	})
	fs.liveness = lv
}

// nodeAvailable reports the NameNode's view of a node: the ground truth
// when heartbeats are disabled, the possibly-stale heartbeat view when
// enabled.
func (fs *FS) nodeAvailable(id cluster.NodeID) bool {
	if fs.liveness == nil {
		return fs.cl.Node(id).Alive()
	}
	deadline := sim.Duration(missedBeats) * heartbeatInterval
	return fs.eng.Now().Sub(fs.liveness.lastSeen[int(id)]) < deadline+heartbeatInterval
}

// FailedOvers counts reads that hit an unreachable node during the
// stale window and retried elsewhere.
//
//lint:testapi compute tests count the reads that failed over to a live replica
func (fs *FS) FailedOvers() int { return fs.failedOvers }
