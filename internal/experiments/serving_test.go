package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dyrs/internal/workload"
)

// TestServingSmokeScorecard runs the CI preset once and checks the
// scorecard is structurally sound: every policy row scored against the
// same stream, tenants present, and the migrating policies actually
// migrated and recorded lead time.
func TestServingSmokeScorecard(t *testing.T) {
	rep, err := RunServing(ServingSmokeOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("empty stream")
	}
	wantPolicies := []string{"hdfs", "costaware", "dyrs", "ignem"}
	if len(rep.Rows) != len(wantPolicies) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(wantPolicies))
	}
	for i, row := range rep.Rows {
		if row.Policy != wantPolicies[i] {
			t.Errorf("row %d policy %q, want %q", i, row.Policy, wantPolicies[i])
		}
		if row.Issued != rep.Requests {
			t.Errorf("%s issued %d, want the full stream (%d)", row.Policy, row.Issued, rep.Requests)
		}
		if row.Served == 0 || row.HitRate <= 0 {
			t.Errorf("%s served=%d hitRate=%f", row.Policy, row.Served, row.HitRate)
		}
		if len(row.Tenants) != 3 {
			t.Errorf("%s has %d tenant scores", row.Policy, len(row.Tenants))
		}
		for _, ts := range row.Tenants {
			if ts.Served > 0 && ts.P99Ms <= 0 {
				t.Errorf("%s/%s: served %d but p99 %f", row.Policy, ts.Tenant, ts.Served, ts.P99Ms)
			}
		}
		if row.Policy == "hdfs" {
			if row.Migrated != 0 || row.LeadP99Sec != 0 {
				t.Errorf("hdfs row carries migration numbers: %+v", row)
			}
		} else {
			if row.Migrated == 0 {
				t.Errorf("%s migrated nothing", row.Policy)
			}
			if row.LeadP50Sec <= 0 {
				t.Errorf("%s recorded no lead time", row.Policy)
			}
		}
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestServingDeterminism: the serving experiment sits in the
// determinism gate, so two runs of the same options must be deeply
// equal.
func TestServingDeterminism(t *testing.T) {
	opt := ServingSmokeOptions(7)
	a, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunServing(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("serving smoke is nondeterministic across identical runs")
	}
}

// TestServingRowIndependentOfTracing: a serving row reads its latency
// and lead-time quantiles from histograms the driver and the coordinator
// keep themselves, so the scorecard is the same whether or not a tracer
// is attached.
func TestServingRowIndependentOfTracing(t *testing.T) {
	t.Parallel()
	opt := ServingSmokeOptions(3)
	stream := workload.GenerateServing(opt.Spec, opt.Seed)
	for _, name := range []string{"hdfs", "dyrs"} {
		var rows [2]*ServingPolicyRow
		for i, traced := range []bool{false, true} {
			pol, envOpt := servingEnv(opt, name)
			envOpt.Trace = traced
			row, err := RunServingLoad(NewEnv(pol, envOpt), stream, DefaultServingLoadOptions())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rows[i] = row
		}
		if !reflect.DeepEqual(rows[0], rows[1]) {
			t.Errorf("%s: untraced row differs from traced row:\n%+v\n%+v", name, *rows[0], *rows[1])
		}
		if rows[1].Tenants[0].P99Ms <= 0 || (name == "dyrs" && rows[1].LeadP50Sec <= 0) {
			t.Errorf("%s: traced row has no latency or lead-time quantiles: %+v", name, *rows[1])
		}
	}
}

// TestRunServingRejectsBadOptions: an unknown policy name, a spec
// ServingSpec.Validate rejects or a negative cluster size is an error
// before anything runs, never a panic inside GenerateServing, NewEnv or
// the scheduler.
func TestRunServingRejectsBadOptions(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		edit func(*ServingOptions)
	}{
		{"unknown policy", func(o *ServingOptions) { o.Policies = []string{"hdfs", "nope"} }},
		{"negative horizon", func(o *ServingOptions) { o.Spec.Horizon = -time.Minute }},
		{"infinite rate", func(o *ServingOptions) { o.Spec.MeanRate = math.Inf(1) }},
		{"negative files", func(o *ServingOptions) { o.Spec.Files = -1 }},
		{"no blocks per file", func(o *ServingOptions) { o.Spec.BlocksPerFile = 0 }},
		{"negative workers", func(o *ServingOptions) { o.Workers = -1 }},
		{"negative racks", func(o *ServingOptions) { o.Racks = -2 }},
	} {
		opt := ServingSmokeOptions(1)
		tc.edit(&opt)
		if _, err := RunServing(opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
