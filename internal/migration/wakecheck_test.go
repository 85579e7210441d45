//go:build dyrs_wakecheck

package migration

import (
	"strings"
	"testing"
	"time"

	"dyrs/internal/cluster"
)

// panicOf runs f and returns the message it panicked with, or "".
func panicOf(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = p.(string)
		}
	}()
	f()
	return ""
}

// TestSkipOracleCatchesMissingWake plants a missing wake: a block is
// bound into a sleeping slave's queue without enqueue, which would have
// woken it. The awake set skips the slave at the next heartbeat, and
// the skip oracle, visiting it anyway, must see the visit start the
// transfer and panic. The same binding made through enqueue passes.
func TestSkipOracleCatchesMissingWake(t *testing.T) {
	for _, planted := range []bool{false, true} {
		r := newRig(t, 1, 4, NewDYRSBinder(), nil, DefaultConfig())
		f := r.mkFile(t, "in", 1)
		r.eng.RunFor(3 * time.Second)
		if got := awakeSlaves(r.c); len(got) != 0 {
			t.Fatalf("slaves %v still awake", got)
		}
		id := f.Blocks[0]
		s := r.c.slaves[int(r.fs.Replicas(id)[0])]
		bi := r.c.newRecord(id)
		if planted {
			r.c.transition(bi, stateQueued)
			bi.slave = s.node.ID
			s.queue = append(s.queue, bi)
		} else {
			s.enqueue(bi)
		}
		msg := panicOf(func() { r.eng.RunFor(time.Second) })
		switch {
		case planted && !strings.Contains(msg, "was asleep, but a tick"):
			t.Errorf("planted missing wake: oracle reported %q, want a skipped tick", msg)
		case !planted && msg != "":
			t.Errorf("enqueue woke the slave, yet the oracle reported %q", msg)
		}
	}
}

// TestSkipOracleCatchesMissingReadyBit plants an enqueue that does not
// set the ready bit: a block is enqueued on an idle slave between
// heartbeats and the slave's ready bit is cleared again. Migrate's RPC,
// sent before the next heartbeat, skips the slave, and the skip oracle,
// pulling and kicking it anyway, must see the kick start the transfer
// and panic. The plain enqueue passes.
func TestSkipOracleCatchesMissingReadyBit(t *testing.T) {
	for _, planted := range []bool{false, true} {
		r := newRig(t, 1, 4, NewDYRSBinder(), nil, DefaultConfig())
		f := r.mkFile(t, "in", 1)
		r.eng.RunFor(3 * time.Second)
		id := f.Blocks[0]
		s := r.c.slaves[int(r.fs.Replicas(id)[0])]
		s.enqueue(r.c.newRecord(id))
		if planted {
			clearBit(r.c.ready, int(s.node.ID))
		}
		r.cl.RPC(r.c.rpcPull)
		msg := panicOf(func() { r.eng.RunFor(cluster.RPCLatency) })
		switch {
		case planted && !strings.Contains(msg, "was not ready, but a pull"):
			t.Errorf("planted missing ready bit: oracle reported %q, want a skipped pull", msg)
		case !planted && msg != "":
			t.Errorf("enqueue made the slave ready, yet the oracle reported %q", msg)
		}
		if !planted && s.nActive != 1 {
			t.Errorf("the RPC started %d transfers, want 1", s.nActive)
		}
	}
}

// TestSkipOracleCatchesMissingStaleMark plants a heartbeat that changes
// a node's stored estimate without marking the node stale. The next
// Algorithm 1 pass keeps the node's old view, and the skip oracle,
// rebuilding every view, must panic. The same report made through
// onHeartbeat passes.
func TestSkipOracleCatchesMissingStaleMark(t *testing.T) {
	for _, planted := range []bool{false, true} {
		b := NewDYRSBinder()
		r := newRig(t, 1, 4, b, nil, DefaultConfig())
		r.eng.RunFor(3 * time.Second)
		b.beginPass()
		e := r.c.estimates[1]
		if planted {
			r.c.estimates[1].perByte = 2 * e.perByte
			r.c.estEpoch++
		} else {
			r.c.onHeartbeat(1, 2*e.perByte, e.queued)
		}
		msg := panicOf(b.beginPass)
		switch {
		case planted && !strings.Contains(msg, "node 1's view"):
			t.Errorf("planted missing stale mark: oracle reported %q, want node 1's view", msg)
		case !planted && msg != "":
			t.Errorf("onHeartbeat marked the node stale, yet the oracle reported %q", msg)
		}
		if got := b.views[1].PerByte; !planted && got != 2*e.perByte {
			t.Errorf("node 1's view has PerByte %g, want the reported %g", got, 2*e.perByte)
		}
	}
}
