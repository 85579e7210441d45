//go:build dyrs_wakecheck

package migration

import (
	"strings"
	"testing"
	"time"
)

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
		msg := func() (msg string) {
			defer func() {
				if p := recover(); p != nil {
					msg = p.(string)
				}
			}()
			r.eng.RunFor(time.Second)
			return ""
		}()
		switch {
		case planted && !strings.Contains(msg, "was asleep, but a tick"):
			t.Errorf("planted missing wake: oracle reported %q, want a skipped tick", msg)
		case !planted && msg != "":
			t.Errorf("enqueue woke the slave, yet the oracle reported %q", msg)
		}
	}
}
