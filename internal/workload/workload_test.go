package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dyrs/internal/cluster"
	"dyrs/internal/sim"
)

func TestTPCDSQueries(t *testing.T) {
	qs := TPCDSQueries()
	if len(qs) != 10 {
		t.Fatalf("queries = %d, want 10", len(qs))
	}
	seen := map[string]bool{}
	for i, q := range qs {
		if seen[q.Name] {
			t.Errorf("duplicate query %s", q.Name)
		}
		seen[q.Name] = true
		if q.InputSize <= 0 || q.Stages < 2 || q.Selectivity <= 0 || q.Selectivity > 0.2 {
			t.Errorf("query %s has odd parameters: %+v", q.Name, q)
		}
		if i > 0 && q.InputSize < qs[i-1].InputSize {
			t.Errorf("queries not sorted by input size at %d", i)
		}
		if q.TableName() != "table/"+q.Name {
			t.Errorf("table name %q", q.TableName())
		}
	}
}

func TestHiveStageSpecs(t *testing.T) {
	q := TPCDSQueries()[0]
	s0 := q.StageSpec(0, q.TableName())
	if !s0.Migrate || !s0.ImplicitEvict {
		t.Error("stage 0 should migrate with implicit eviction")
	}
	if s0.ExtraLeadTime != q.CompileTime {
		t.Errorf("stage 0 lead = %v, want compile time %v", s0.ExtraLeadTime, q.CompileTime)
	}
	if s0.MapOutputRatio != q.Selectivity {
		t.Errorf("stage 0 selectivity = %v", s0.MapOutputRatio)
	}
	s1 := q.StageSpec(1, "intermediate")
	if s1.Migrate {
		t.Error("later stages must not re-trigger migration")
	}
	if s1.InputFiles[0] != "intermediate" {
		t.Errorf("stage 1 input = %v", s1.InputFiles)
	}
	if s0.PlatformOverhead == 0 || s0.TaskOverhead == 0 {
		t.Error("overheads not defaulted")
	}
}

func TestGenerateSWIMMarginals(t *testing.T) {
	cfg := DefaultSWIMConfig()
	jobs := GenerateSWIM(rand.New(rand.NewSource(7)), cfg)
	if len(jobs) != 200 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	var total sim.Bytes
	small := 0
	var maxSize sim.Bytes
	prevArrival := time.Duration(-1)
	for _, j := range jobs {
		total += j.InputSize
		if j.InputSize < swimSmallMax {
			small++
		}
		if j.InputSize > maxSize {
			maxSize = j.InputSize
		}
		if j.InputSize > swimLargeMax {
			t.Errorf("job %s exceeds cap: %d", j.Name, j.InputSize)
		}
		if j.Arrival < prevArrival {
			t.Errorf("arrivals not monotone at %s", j.Name)
		}
		prevArrival = j.Arrival
		if j.ShuffleRatio <= 0 || j.OutputRatio <= 0 {
			t.Errorf("job %s ratios: %+v", j.Name, j)
		}
	}
	// Published marginals: ~85% small, total ~170GB, heavy tail into GBs.
	if frac := float64(small) / 200; frac < 0.75 || frac > 0.95 {
		t.Errorf("small fraction = %v, want ~0.85", frac)
	}
	if total < 100*sim.GB || total > 240*sim.GB {
		t.Errorf("total input = %v, want ~170GB", sim.FormatBytes(total))
	}
	if maxSize < 2*sim.GB {
		t.Errorf("heavy tail missing: max = %v", sim.FormatBytes(maxSize))
	}
}

// Property: SWIM generation is deterministic per seed and always
// respects bounds.
func TestPropertySWIMGeneration(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultSWIMConfig()
		cfg.Jobs = 50
		a := GenerateSWIM(rand.New(rand.NewSource(seed)), cfg)
		b := GenerateSWIM(rand.New(rand.NewSource(seed)), cfg)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if a[i].InputSize < sim.MB || a[i].InputSize > swimLargeMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSWIMConfigValidate: the default config and an all-at-once replay
// are valid; each value GenerateSWIM cannot use is an error naming its
// field.
func TestSWIMConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		field string // "" for a valid config
		edit  func(*SWIMConfig)
	}{
		{"", func(c *SWIMConfig) {}},
		{"", func(c *SWIMConfig) { c.Jobs, c.TotalInput, c.MeanInterarrival = 1, 0, 0 }},
		{"Jobs", func(c *SWIMConfig) { c.Jobs = 0 }},
		{"Jobs", func(c *SWIMConfig) { c.Jobs = -3 }},
		{"TotalInput", func(c *SWIMConfig) { c.TotalInput = -sim.GB }},
		{"MeanInterarrival", func(c *SWIMConfig) { c.MeanInterarrival = -time.Second }},
	} {
		cfg := DefaultSWIMConfig()
		tc.edit(&cfg)
		err := cfg.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", cfg, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), "SWIMConfig."+tc.field+" ")):
			t.Errorf("%+v: error %v, want one naming SWIMConfig.%s", cfg, err, tc.field)
		}
	}
	// GenerateSWIM refuses a negative interarrival up front, instead of
	// handing out arrivals before the replay starts.
	defer func() {
		if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "MeanInterarrival") {
			t.Errorf("GenerateSWIM panicked with %v, want Validate's MeanInterarrival error", err)
		}
	}()
	cfg := DefaultSWIMConfig()
	cfg.MeanInterarrival = -time.Second
	GenerateSWIM(rand.New(rand.NewSource(1)), cfg)
}

func TestSWIMSpec(t *testing.T) {
	j := SWIMJob{Name: "swim-001", InputSize: 10 * sim.GB, ShuffleRatio: 0.3, OutputRatio: 0.5}
	spec := j.Spec(true)
	if !spec.Migrate || !spec.ImplicitEvict {
		t.Error("migrate flags not set")
	}
	if spec.Reducers < 1 || spec.Reducers > 16 {
		t.Errorf("reducers = %d", spec.Reducers)
	}
	if spec.InputFiles[0] != "swim/swim-001" {
		t.Errorf("input = %v", spec.InputFiles)
	}
	tiny := SWIMJob{Name: "t", InputSize: 4 * sim.MB}
	if tiny.Spec(false).Reducers != 1 {
		t.Errorf("tiny job reducers = %d", tiny.Spec(false).Reducers)
	}
}

func TestSortSpec(t *testing.T) {
	spec := SortSpec("data", 8)
	if spec.MapOutputRatio != 1.0 || spec.OutputRatio != 1.0 {
		t.Error("sort must shuffle and write its full input")
	}
	if spec.Reducers != 8 || !spec.Migrate {
		t.Errorf("spec = %+v", spec)
	}
}

func TestTableIIPatterns(t *testing.T) {
	pats := TableIIPatterns(1, 2)
	if len(pats) != 5 {
		t.Fatalf("patterns = %d", len(pats))
	}
	figures := []string{"9a", "9b", "9c", "9d", "9e"}
	for i, p := range pats {
		if p.Figure != figures[i] {
			t.Errorf("pattern %d figure = %s", i, p.Figure)
		}
	}
	// Each pattern starts interference on node 1 and on no other node.
	for _, p := range pats {
		eng := sim.NewEngine(1)
		cl := cluster.New(eng, 4, nil)
		p.Start(cl)
		eng.RunUntil(sim.Time(5 * time.Second))
		for _, n := range cl.Nodes() {
			want := 0
			if n.ID == 1 {
				want = InterferenceStreams
			}
			if got := n.Disk.ActiveFlows(); got != want {
				t.Errorf("%s runs %d flows on %v at 5s, want %d", p.Name, got, n.ID, want)
			}
		}
	}
}

func TestTableIIPatternsAntiphase(t *testing.T) {
	// Patterns 9d/9e: exactly one node's interference active at any time.
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, 4, nil)
	p := TableIIPatterns(1, 2)[3] // 9d
	p.Start(cl)
	for i := 1; i <= 6; i++ {
		eng.RunUntil(sim.Time(time.Duration(i)*10*time.Second + 5*time.Second))
		a := cl.Node(1).Disk.ActiveFlows() > 0
		b := cl.Node(2).Disk.ActiveFlows() > 0
		if a == b {
			t.Errorf("at %v both/neither active: node1=%v node2=%v", eng.Now(), a, b)
		}
	}
}

func TestJobSpecBuilders(t *testing.T) {
	g := GrepSpec("logs")
	if g.MapOutputRatio >= 0.01 {
		t.Error("grep should emit almost nothing")
	}
	w := WordCountSpec("corpus", 4)
	if !g.Migrate || !w.Migrate || w.Reducers != 4 {
		t.Errorf("wordcount spec wrong: %+v", w)
	}
	j := JoinSpec("orders", "customers", 8)
	if len(j.InputFiles) != 2 {
		t.Errorf("join inputs = %v", j.InputFiles)
	}
	for _, s := range []string{j.InputFiles[0], j.InputFiles[1]} {
		if s == "" {
			t.Error("empty input name")
		}
	}
	if j.PlatformOverhead == 0 {
		t.Error("overheads not defaulted")
	}
}
