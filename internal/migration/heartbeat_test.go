package migration

import (
	"reflect"
	"testing"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

// pullLog is a Binder that binds nothing and records which slaves
// pulled, in order. It reports that any slave's pull may bind work, so
// every round visits every slave.
type pullLog struct{ pulls []cluster.NodeID }

func (b *pullLog) Name() string                 { return "pull-log" }
func (b *pullLog) OnMigrate([]*blockInfo)       {}
func (b *pullLog) Remove(*blockInfo)            {}
func (b *pullLog) PendingCount() int            { return 0 }
func (b *pullLog) Reset()                       {}
func (b *pullLog) attach(*Coordinator)          {}
func (b *pullLog) stopBinder()                  {}
func (b *pullLog) pullsAny() bool               { return true }
func (b *pullLog) pullable(cluster.NodeID) bool { return false }
func (b *pullLog) take() (p []cluster.NodeID)   { p, b.pulls = b.pulls, nil; return p }
func (b *pullLog) OnPull(n cluster.NodeID, _ int, out []*blockInfo) []*blockInfo {
	b.pulls = append(b.pulls, n)
	return out
}

// TestHeartbeatRoundVisitsEverySlave: one heartbeat round ticks every
// slave in node order from one engine event. A slave on a dead node is
// still visited — its tick returns early, so it neither reports nor
// pulls, but the engine counts it as a fired event, as it counted the
// slave's own ticker. After Shutdown no heartbeat fires and none is
// pending.
func TestHeartbeatRoundVisitsEverySlave(t *testing.T) {
	const nodes = 5
	b := &pullLog{}
	r := newRig(t, 1, nodes, b, nil, DefaultConfig())
	hb := r.c.cfg.Heartbeat
	if got := r.eng.Pending(); got != nodes {
		t.Fatalf("pending %d heartbeats at start, want %d", got, nodes)
	}
	r.cl.KillNode(2)
	round := func(want []cluster.NodeID) {
		t.Helper()
		fired := r.eng.EventsFired()
		r.eng.RunFor(hb)
		if got := b.take(); !reflect.DeepEqual(got, want) {
			t.Errorf("at %v: slaves pulled %v, want %v", r.eng.Now(), got, want)
		}
		if got := r.eng.EventsFired() - fired; got != nodes {
			t.Errorf("at %v: round fired %d events, want %d", r.eng.Now(), got, nodes)
		}
		if got := r.eng.Pending(); got != nodes {
			t.Errorf("at %v: pending %d heartbeats, want %d", r.eng.Now(), got, nodes)
		}
	}
	round([]cluster.NodeID{0, 1, 3, 4})
	if r.c.estimates[2].seen {
		t.Error("dead slave reported an estimate")
	}
	r.cl.ReviveNode(2)
	round([]cluster.NodeID{0, 1, 2, 3, 4})
	if !r.c.estimates[2].seen {
		t.Error("revived slave reported no estimate")
	}

	r.c.Shutdown()
	if got := r.eng.Pending(); got != 0 {
		t.Errorf("pending %d events after Shutdown, want 0", got)
	}
	fired := r.eng.EventsFired()
	r.eng.RunFor(5 * hb)
	if got := b.take(); len(got) != 0 {
		t.Errorf("slaves pulled %v after Shutdown", got)
	}
	if got := r.eng.EventsFired() - fired; got != 0 {
		t.Errorf("%d events fired after Shutdown", got)
	}
	if r.eng.Now() != sim.Time(7*hb) {
		t.Errorf("clock at %v, want %v", r.eng.Now(), sim.Time(7*hb))
	}
}
