package migration

import (
	"reflect"
	"testing"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
)

func TestBinderByName(t *testing.T) {
	for _, name := range []string{"dyrs", "ignem", "costaware"} {
		b, err := BinderByName(name)
		if err != nil {
			t.Errorf("BinderByName(%q): %v", name, err)
			continue
		}
		if b == nil {
			t.Errorf("BinderByName(%q) returned nil binder", name)
		}
	}
	if _, err := BinderByName("bogus"); err == nil {
		t.Error("BinderByName(\"bogus\") should fail")
	}
}

// TestPolicyBinderImmediateBindsOnMigrate drives the immediate-binding
// path: an Ignem-backed PolicyBinder must enqueue every block at
// OnMigrate (no pending list) and migrate the whole file.
func TestPolicyBinderImmediateBindsOnMigrate(t *testing.T) {
	b := NewPolicyBinder(policy.NewIgnem())
	r := newRig(t, 1, 4, b, nil, DefaultConfig())
	r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	if got := b.PendingCount(); got != 0 {
		t.Errorf("immediate binder holds %d pending blocks", got)
	}
	r.eng.RunUntil(sim.Time(120 * time.Second))
	st := r.c.Stats()
	if st.Requested != 8 || st.Migrated != 8 {
		t.Fatalf("requested=%d migrated=%d, want 8/8", st.Requested, st.Migrated)
	}
	r.c.Shutdown()
}

// TestPolicyBinderCostAwareMigrates drives the new heuristic end to end
// through the delayed-binding machinery.
func TestPolicyBinderCostAwareMigrates(t *testing.T) {
	b := NewPolicyBinder(policy.NewCostAware())
	r := newRig(t, 1, 4, b, nil, DefaultConfig())
	r.mkFile(t, "in", 8)
	if err := r.c.Migrate(1, []string{"in"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(120 * time.Second))
	st := r.c.Stats()
	if st.Requested != 8 || st.Migrated != 8 {
		t.Fatalf("requested=%d migrated=%d, want 8/8", st.Requested, st.Migrated)
	}
	if b.Name() != "CostAware" {
		t.Errorf("binder name %q", b.Name())
	}
	r.c.Shutdown()
}

// TestPolicyBinderMatchesReference pins the DYRS policy binder on a
// fault-free two-job rig to the stats and per-slave migration counts
// that it and the frozen pre-extraction binder both produced when the
// latter was retired. (The harness golden corpus additionally pins
// trace hashes across fuzz scenarios with faults.)
func TestPolicyBinderMatchesReference(t *testing.T) {
	r := newRig(t, 7, 6, NewDYRSBinder(), nil, DefaultConfig())
	r.mkFile(t, "a", 12)
	r.mkFile(t, "b", 9)
	if err := r.c.Migrate(1, []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(5 * time.Second))
	if err := r.c.Migrate(2, []string{"b"}, false); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(sim.Time(180 * time.Second))
	per := make([]int, 6)
	for i := range per {
		per[i] = r.c.Slave(cluster.NodeID(i)).Migrations
	}
	st := r.c.Stats()
	r.c.Shutdown()
	if want := (Stats{Requested: 21, Migrated: 21, BytesMigrated: 21 * r.fs.Config().BlockSize}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if want := []int{4, 4, 4, 3, 3, 3}; !reflect.DeepEqual(per, want) {
		t.Errorf("per-slave migrations %v, want %v", per, want)
	}
}
