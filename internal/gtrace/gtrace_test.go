package gtrace

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func defaultTrace(t *testing.T) *Trace {
	t.Helper()
	return Generate(DefaultConfig())
}

func TestGenerateShape(t *testing.T) {
	tr := defaultTrace(t)
	if len(tr.Util) != 40 {
		t.Fatalf("servers = %d", len(tr.Util))
	}
	wantBins := int((24 * time.Hour) / (5 * time.Minute))
	for s, series := range tr.Util {
		if len(series) != wantBins {
			t.Fatalf("server %d has %d bins, want %d", s, len(series), wantBins)
		}
		for b, u := range series {
			if u < 0 || u > 1 {
				t.Fatalf("util out of range at [%d][%d]: %v", s, b, u)
			}
		}
	}
	if len(tr.Jobs) != 2000 {
		t.Errorf("jobs = %d", len(tr.Jobs))
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	Generate(Config{})
}

// The headline calibration claims from §II, with generous tolerances:
// the analyses must keep the paper's shape, not its exact decimals.

func TestMeanUtilizationCalibration(t *testing.T) {
	tr := defaultTrace(t)
	m := tr.MeanUtilization()
	if m < 0.01 || m > 0.07 {
		t.Errorf("mean utilization = %.3f, want ~0.031", m)
	}
}

func TestFractionUnder4Percent(t *testing.T) {
	tr := defaultTrace(t)
	f := tr.UtilizationSamples().FractionBelow(0.04)
	if f < 0.65 || f > 0.92 {
		t.Errorf("fraction under 4%% = %.2f, want ~0.80", f)
	}
}

func TestCrossNodeHeterogeneity(t *testing.T) {
	tr := defaultTrace(t)
	ranked := tr.RankedServers()
	means := tr.ServerMeans()
	busiest := means[ranked[0]]
	median := means[ranked[len(ranked)/2]]
	if median <= 0 {
		t.Fatal("median utilization zero")
	}
	// Fig. 1: the busy node is several-fold busier than a typical one
	// (13x and 5x in the paper's example trio).
	if ratio := busiest / median; ratio < 3 {
		t.Errorf("busiest/median = %.1fx, want >=3x heterogeneity", ratio)
	}
}

func TestLeadTimeCalibration(t *testing.T) {
	tr := defaultTrace(t)
	if m := tr.MeanLeadSeconds(); m < 7 || m > 11 {
		t.Errorf("mean lead = %.1fs, want ~8.8s", m)
	}
	f := tr.FractionLeadCoversRead()
	if f < 0.70 || f > 0.90 {
		t.Errorf("lead>read fraction = %.2f, want ~0.81", f)
	}
}

func TestUtilizationSeries(t *testing.T) {
	tr := defaultTrace(t)
	ts := tr.UtilizationSeries(0)
	if ts.Len() != len(tr.Util[0]) {
		t.Fatalf("series len = %d", ts.Len())
	}
	last := ts.Last()
	if last.T <= 23 || last.T >= 24 {
		t.Errorf("last sample at %vh, want just under 24h", last.T)
	}
}

func TestRatioPDF(t *testing.T) {
	tr := defaultTrace(t)
	h := tr.RatioPDF(30)
	var sum float64
	for _, p := range h.PDF() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("pdf sums to %v", sum)
	}
}

func TestJobRatio(t *testing.T) {
	j := Job{LeadSeconds: 10, ReadSeconds: 4}
	if j.Ratio() != 2.5 {
		t.Errorf("ratio = %v", j.Ratio())
	}
}

func TestUtilizationSamplesCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 3
	cfg.Duration = time.Hour
	tr := Generate(cfg)
	s := tr.UtilizationSamples()
	if s.Len() != 3*12 {
		t.Errorf("samples = %d, want 36", s.Len())
	}
}

// Property: generation is deterministic per seed.
func TestPropertyDeterministic(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.Servers = 5
		cfg.Duration = 2 * time.Hour
		cfg.Jobs = 50
		cfg.Seed = seed
		a, b := Generate(cfg), Generate(cfg)
		for s := range a.Util {
			for i := range a.Util[s] {
				if a.Util[s][i] != b.Util[s][i] {
					return false
				}
			}
		}
		for i := range a.Jobs {
			if a.Jobs[i] != b.Jobs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestEmptyJobAnalyses(t *testing.T) {
	tr := &Trace{}
	if tr.FractionLeadCoversRead() != 0 || tr.MeanLeadSeconds() != 0 || tr.MeanUtilization() != 0 {
		t.Error("empty trace analyses should be zero")
	}
}

// tracedTasks generates the default trace and keeps a copy of every
// server's task records, which Generate drops.
func tracedTasks(t *testing.T) (*Trace, [][]taskRecord) {
	t.Helper()
	var all [][]taskRecord
	tr := generate(DefaultConfig(), func(s int, tasks []taskRecord) {
		if s != len(all) {
			t.Fatalf("server %d's tasks arrived after %d servers", s, len(all))
		}
		all = append(all, append([]taskRecord(nil), tasks...))
	})
	return tr, all
}

func TestTaskRecordsSane(t *testing.T) {
	tr, all := tracedTasks(t)
	if len(all) != tr.Cfg.Servers {
		t.Fatalf("task lists = %d", len(all))
	}
	total := 0
	for s, tasks := range all {
		for i, task := range tasks {
			if task.End <= task.Start {
				t.Fatalf("server %d task %d has non-positive duration", s, i)
			}
			if task.IOSeconds <= 0 || task.IOSeconds > task.End-task.Start {
				t.Fatalf("server %d task %d io=%v outside lifetime %v",
					s, i, task.IOSeconds, task.End-task.Start)
			}
			if i > 0 && task.Start < tasks[i-1].Start {
				t.Fatalf("server %d tasks out of arrival order", s)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no tasks synthesized")
	}
}

func TestUtilDerivedFromTasks(t *testing.T) {
	// The Util matrix must be exactly the §II-B derivation of the task
	// records: recompute one busy server by brute force per-second
	// accumulation and compare. The hook must not change the trace.
	tr, all := tracedTasks(t)
	if plain := defaultTrace(t); !reflect.DeepEqual(plain, tr) {
		t.Fatal("generating with a task hook changed the trace")
	}
	s := tr.RankedServers()[0]
	span := tr.Cfg.Duration.Seconds()
	binW := tr.Cfg.BinWidth.Seconds()
	bins := int(span / binW)
	want := make([]float64, bins)
	for _, task := range all[s] {
		rate := task.IOSeconds / (task.End - task.Start)
		for b := 0; b < bins; b++ {
			lo := math.Max(task.Start, float64(b)*binW)
			hi := math.Min(task.End, float64(b+1)*binW)
			if hi > lo {
				want[b] += rate * (hi - lo) / binW
			}
		}
	}
	for b := range want {
		if want[b] > 1 {
			want[b] = 1
		}
		if math.Abs(want[b]-tr.Util[s][b]) > 1e-9 {
			t.Fatalf("bin %d: derived %v, stored %v", b, want[b], tr.Util[s][b])
		}
	}
}
