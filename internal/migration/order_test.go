package migration

import (
	"slices"
	"testing"
	"time"

	"dyrs/internal/sim"
)

func TestOrderPolicyString(t *testing.T) {
	if OrderFIFO.String() != "FIFO" || OrderSJF.String() != "SJF" || OrderEDF.String() != "EDF" {
		t.Error("order policy names wrong")
	}
}

func TestHintForAggregation(t *testing.T) {
	r := newRig(t, 30, 4, NewDYRSBinder(), nil, DefaultConfig())
	defer r.c.Shutdown()
	r.mkFile(t, "shared", 1)
	// Two jobs reference the same block with different hints: the
	// earliest start and the smallest size win.
	r.c.Migrate(1, []string{"shared"}, false)
	r.c.Migrate(2, []string{"shared"}, false)
	r.c.SetJobHint(1, JobHint{ExpectedStart: sim.Time(20 * time.Second), InputBytes: 1 * sim.GB})
	r.c.SetJobHint(2, JobHint{ExpectedStart: sim.Time(5 * time.Second), InputBytes: 8 * sim.GB})
	blocks, _ := r.fs.FileBlockIDs([]string{"shared"})
	bi := r.c.blockRecord(blocks[0])
	start, bytes := r.c.hintFor(bi)
	if start != sim.Time(5*time.Second) {
		t.Errorf("start = %v, want 5s (earliest)", start)
	}
	if bytes != 1*sim.GB {
		t.Errorf("bytes = %d, want 1GB (smallest)", bytes)
	}
}

func TestHintForUnhinted(t *testing.T) {
	r := newRig(t, 31, 4, NewDYRSBinder(), nil, DefaultConfig())
	defer r.c.Shutdown()
	r.mkFile(t, "f", 1)
	r.c.Migrate(1, []string{"f"}, false)
	blocks, _ := r.fs.FileBlockIDs([]string{"f"})
	start, bytes := r.c.hintFor(r.c.blockRecord(blocks[0]))
	if start != 0 {
		t.Errorf("unhinted start = %v, want 0 (urgent)", start)
	}
	if bytes != 1<<62 {
		t.Errorf("unhinted bytes = %d, want sentinel", bytes)
	}
}

func TestSJFOrdersSmallJobsFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Order = OrderSJF
	r := newRig(t, 32, 4, NewDYRSBinder(), nil, cfg)
	defer r.c.Shutdown()
	r.mkFile(t, "big", 8)
	r.mkFile(t, "small", 1)
	r.c.Migrate(1, []string{"big"}, false)
	r.c.Migrate(2, []string{"small"}, false)
	r.c.SetJobHint(1, JobHint{InputBytes: 8 * 256 * sim.MB})
	r.c.SetJobHint(2, JobHint{InputBytes: 256 * sim.MB})
	b := r.c.binder.(*PolicyBinder)
	b.UpdateTargets()
	if want, _ := r.fs.FileBlockIDs([]string{"small"}); !slices.Contains(want, b.pending[0].id) {
		t.Errorf("SJF head of pending = block %d, want one of small's blocks %v", b.pending[0].id, want)
	}
}

func TestEDFOrdersEarliestDeadlineFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Order = OrderEDF
	r := newRig(t, 33, 4, NewDYRSBinder(), nil, cfg)
	defer r.c.Shutdown()
	r.mkFile(t, "later", 2)
	r.mkFile(t, "soon", 2)
	r.c.Migrate(1, []string{"later"}, false)
	r.c.Migrate(2, []string{"soon"}, false)
	r.c.SetJobHint(1, JobHint{ExpectedStart: sim.Time(60 * time.Second)})
	r.c.SetJobHint(2, JobHint{ExpectedStart: sim.Time(3 * time.Second)})
	b := r.c.binder.(*PolicyBinder)
	b.UpdateTargets()
	if want, _ := r.fs.FileBlockIDs([]string{"soon"}); !slices.Contains(want, b.pending[0].id) {
		t.Errorf("EDF head of pending = block %d, want one of soon's blocks %v", b.pending[0].id, want)
	}
}

func TestFIFOKeepsArrivalOrder(t *testing.T) {
	r := newRig(t, 34, 4, NewDYRSBinder(), nil, DefaultConfig())
	defer r.c.Shutdown()
	r.mkFile(t, "first", 2)
	r.mkFile(t, "second", 2)
	r.c.Migrate(1, []string{"first"}, false)
	r.c.Migrate(2, []string{"second"}, false)
	r.c.SetJobHint(1, JobHint{InputBytes: 10 * sim.GB, ExpectedStart: sim.Time(time.Hour)})
	r.c.SetJobHint(2, JobHint{InputBytes: sim.MB, ExpectedStart: 0})
	b := r.c.binder.(*PolicyBinder)
	b.UpdateTargets()
	if want, _ := r.fs.FileBlockIDs([]string{"first"}); !slices.Contains(want, b.pending[0].id) {
		t.Errorf("FIFO head = block %d, want one of first's blocks %v (hints must be ignored)", b.pending[0].id, want)
	}
}

func TestHintsClearedOnEvict(t *testing.T) {
	r := newRig(t, 35, 4, NewDYRSBinder(), nil, DefaultConfig())
	defer r.c.Shutdown()
	r.mkFile(t, "f", 1)
	r.c.Migrate(1, []string{"f"}, false)
	r.c.SetJobHint(1, JobHint{InputBytes: sim.GB})
	r.c.Evict(1)
	if _, ok := r.c.hints[1]; ok {
		t.Error("hint survived eviction")
	}
}
