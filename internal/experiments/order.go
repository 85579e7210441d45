package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dyrs/internal/compute"
	"dyrs/internal/metrics"
	"dyrs/internal/migration"
	"dyrs/internal/sim"
)

// OrderRow summarizes one migration-ordering policy's performance on a
// bursty multi-job workload (the paper's §III future-work extension).
type OrderRow struct {
	Order       migration.OrderPolicy
	MeanJob     float64 // seconds
	SmallMean   float64
	LargeMean   float64
	MemoryHits  int
	MissedReads int
}

// OrderReport compares FIFO, SJF and EDF migration ordering.
type OrderReport struct {
	Rows []OrderRow
}

// String renders the comparison.
func (r OrderReport) String() string {
	t := NewTable("Migration ordering policies (future work §III) — bursty mixed workload",
		"order", "mean job (s)", "small jobs (s)", "large jobs (s)", "memory hits", "missed reads")
	for _, row := range r.Rows {
		t.AddRow(row.Order.String(),
			fmt.Sprintf("%.1f", row.MeanJob),
			fmt.Sprintf("%.1f", row.SmallMean),
			fmt.Sprintf("%.1f", row.LargeMean),
			row.MemoryHits, row.MissedReads)
	}
	return t.String()
}

// RunOrderPolicies submits a burst of many small jobs plus a few large
// ones — with staggered expected start times — under each ordering
// policy and compares outcomes. SJF should rescue the small jobs from
// behind the large ones; EDF should prioritize whichever inputs are
// needed soonest.
func RunOrderPolicies(seed int64) (OrderReport, error) {
	var rep OrderReport
	for _, order := range []migration.OrderPolicy{migration.OrderFIFO, migration.OrderSJF, migration.OrderEDF} {
		opt := DefaultOptions(seed)
		mcfg := migration.DefaultConfig()
		mcfg.Order = order
		opt.MigrationConfig = &mcfg
		env := NewEnv(DYRS, opt)
		rng := rand.New(rand.NewSource(seed))

		// 2 large jobs submitted first, then 20 small ones right behind
		// them: under FIFO the large inputs monopolize migration
		// bandwidth while the small jobs' short lead-times expire.
		type jobPlan struct {
			name  string
			size  sim.Bytes
			at    sim.Duration
			small bool
		}
		var plans []jobPlan
		for i := 0; i < 2; i++ {
			plans = append(plans, jobPlan{
				name: fmt.Sprintf("large-%d", i),
				size: 12 * sim.GB,
				at:   sim.Duration(i) * 500 * time.Millisecond,
			})
		}
		for i := 0; i < 20; i++ {
			plans = append(plans, jobPlan{
				name:  fmt.Sprintf("small-%d", i),
				size:  sim.Bytes(64+rng.Intn(192)) * sim.MB,
				at:    time.Second + sim.Duration(i)*200*time.Millisecond,
				small: true,
			})
		}
		small := metrics.NewSample()
		large := metrics.NewSample()
		for _, p := range plans {
			if err := env.CreateInput(p.name, p.size); err != nil {
				return rep, err
			}
		}
		for _, p := range plans {
			spec := compute.JobSpec{
				Name:             p.name,
				InputFiles:       []string{p.name},
				MapCPUPerByte:    0.8 / float64(256*sim.MB),
				MapOutputRatio:   0.2,
				Reducers:         4,
				OutputRatio:      1,
				PlatformOverhead: 9 * time.Second,
				TaskOverhead:     500 * time.Millisecond,
				Migrate:          true,
				ImplicitEvict:    true,
			}.DefaultOverheads()
			env.FW.SubmitAt(sim.Time(p.at), spec, nil)
		}
		if err := env.WaitJobs(len(plans), Hour); err != nil {
			return rep, fmt.Errorf("order %v: %w", order, err)
		}
		all := metrics.NewSample()
		for _, j := range env.FW.Results() {
			d := j.Duration().Seconds()
			all.Add(d)
			if j.InputBytes < sim.GB {
				small.Add(d)
			} else {
				large.Add(d)
			}
		}
		st := env.Coord.Stats()
		rep.Rows = append(rep.Rows, OrderRow{
			Order:       order,
			MeanJob:     all.Mean(),
			SmallMean:   small.Mean(),
			LargeMean:   large.Mean(),
			MemoryHits:  st.MemoryHits,
			MissedReads: st.MissedReads,
		})
	}
	return rep, nil
}

// orderExperiment registers the migration-ordering future-work study.
func orderExperiment() Experiment {
	return Experiment{
		Name:    "order",
		Summary: "future work: FIFO/SJF/EDF migration ordering policies",
		Run:     func(seed int64) (any, error) { return RunOrderPolicies(seed) },
		Merge: func(rep *FullReport, result any) {
			for _, r := range result.(OrderReport).Rows {
				rep.Order = append(rep.Order, OrderRowJSON{
					Order: r.Order.String(), MeanJob: r.MeanJob,
					SmallMean: r.SmallMean, LargeMean: r.LargeMean,
				})
			}
		},
	}
}
