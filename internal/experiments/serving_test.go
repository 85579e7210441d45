package experiments

import (
	"reflect"
	"testing"
	"time"
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

// TestRunServingRejectsBadOptions: an unknown policy name, a negative
// horizon or a negative cluster size is an error before anything runs,
// never a panic inside NewEnv or the scheduler.
func TestRunServingRejectsBadOptions(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		edit func(*ServingOptions)
	}{
		{"unknown policy", func(o *ServingOptions) { o.Policies = []string{"hdfs", "nope"} }},
		{"negative horizon", func(o *ServingOptions) { o.Spec.Horizon = -time.Minute }},
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
