package migration

import (
	"time"

	"dyrs/internal/sim"
	"dyrs/internal/trace"
)

// RateController adaptively adjusts the migration streams' IO weight in
// the spirit of Aqueduct (Lu, Alvarez, Wilkes — FAST'02), which the
// paper names as complementary to DYRS for controlling the impact of
// background migration on foreground work (§VI): when foreground traffic
// is present on the disks, migration priority decays multiplicatively;
// when the disks are otherwise idle, it recovers additively up to full
// priority. AIMD keeps the controller stable under shifting load.
type RateController struct {
	c      *Coordinator
	ticker *sim.Ticker

	// MinWeight and MaxWeight bound the migration IO weight.
	MinWeight, MaxWeight float64
	// DecayFactor is the multiplicative decrease applied while
	// foreground traffic shares a disk with migrations.
	DecayFactor float64
	// RecoverStep is the additive increase applied while the disks
	// carrying migrations are otherwise idle.
	RecoverStep float64

	// Adjustments counts weight changes, for tests and reporting.
	Adjustments int
}

// NewRateController attaches an AIMD controller to the coordinator,
// sampling at the given interval. The controller owns cfg.IOWeight from
// this point on.
func NewRateController(c *Coordinator, interval time.Duration) *RateController {
	if interval <= 0 {
		interval = time.Second
	}
	rc := &RateController{
		c:           c,
		MinWeight:   0.05,
		MaxWeight:   1.0,
		DecayFactor: 0.5,
		RecoverStep: 0.1,
	}
	rc.ticker = sim.NewTicker(c.eng, interval, rc.tick)
	return rc
}

// Weight reports the current migration IO weight.
func (rc *RateController) Weight() float64 { return rc.c.cfg.IOWeight }

// Stop halts the controller.
func (rc *RateController) Stop() { rc.ticker.Stop() }

// tick inspects every disk that is running a migration: if any of them
// also carries foreground flows, decay; if all are migration-only,
// recover.
func (rc *RateController) tick() {
	contended := false
	activeAnywhere := false
	for _, s := range rc.c.slaves {
		n := s.nActive
		if n == 0 {
			continue
		}
		activeAnywhere = true
		// The disk's flow count beyond this slave's own migrations is
		// foreground traffic (task reads, interference).
		if s.node.Disk.ActiveFlows() > n {
			contended = true
			break
		}
	}
	if !activeAnywhere {
		return // nothing to control
	}
	w := rc.c.cfg.IOWeight
	if contended {
		w *= rc.DecayFactor
		if w < rc.MinWeight {
			w = rc.MinWeight
		}
	} else {
		w += rc.RecoverStep
		if w > rc.MaxWeight {
			w = rc.MaxWeight
		}
	}
	if w != rc.c.cfg.IOWeight {
		if tr := rc.c.tr; tr.Enabled() {
			tr.Instant("migration", "throttle", trace.NodeMaster,
				trace.Float("weight", w),
				trace.Float("prev", rc.c.cfg.IOWeight),
				trace.Str("direction", throttleDirection(contended)))
			tr.Inc("migration.throttle")
		}
		rc.c.cfg.IOWeight = w
		rc.Adjustments++
	}
}

// throttleDirection names the AIMD branch for trace attributes.
func throttleDirection(contended bool) string {
	if contended {
		return "decay"
	}
	return "recover"
}
