package experiments

import (
	"reflect"
	"testing"
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
