package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestServingSeedDeterminism: the same spec+seed must yield a deeply
// equal stream, and different seeds must actually differ.
func TestServingSeedDeterminism(t *testing.T) {
	spec := DefaultServingSpec()
	a := GenerateServing(spec, 42)
	b := GenerateServing(spec, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different streams")
	}
	c := GenerateServing(spec, 43)
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical request streams")
	}
	if len(a.Requests) == 0 {
		t.Fatal("empty stream")
	}
	for i, r := range a.Requests {
		if r.At < 0 || r.At >= spec.Horizon {
			t.Fatalf("request %d outside horizon: %v", i, r.At)
		}
		if i > 0 && r.At < a.Requests[i-1].At {
			t.Fatalf("requests out of order at %d", i)
		}
		if r.File < 0 || r.File >= spec.Files || r.Block < 0 || r.Block >= spec.BlocksPerFile {
			t.Fatalf("request %d out of population: %+v", i, r)
		}
		if r.Tenant < 0 || r.Tenant >= len(DefaultTenants()) {
			t.Fatalf("request %d bad tenant: %+v", i, r)
		}
	}
}

// arrivalBuckets integrates the spec's diurnal rate curve into n
// equal-width buckets over the horizon and returns each bucket's
// expected request count (midpoint rule).
func arrivalBuckets(s ServingSpec, n int) []float64 {
	out := make([]float64, n)
	w := s.Horizon / time.Duration(n)
	const steps = 32 // midpoint-rule sub-steps per bucket
	for i := range out {
		start := time.Duration(i) * w
		sum := 0.0
		for k := 0; k < steps; k++ {
			sum += s.rate(start + w*time.Duration(2*k+1)/time.Duration(2*steps))
		}
		out[i] = sum / steps * w.Seconds()
	}
	return out
}

// TestServingDiurnalBucketsGolden pins the integrated arrival-rate curve
// (pure function of the spec) and checks a drawn stream tracks it. The
// golden values are the midpoint-rule integral of
// rate(t) = 12·(1+0.6·cos(2π(t/H − 1/4))) over 8 buckets of a
// 10-minute horizon; total mass is MeanRate·Horizon = 7200.
func TestServingDiurnalBucketsGolden(t *testing.T) {
	spec := DefaultServingSpec()
	got := arrivalBuckets(spec, 8)
	// Analytically: bucket i carries 900 + 687.55·Δsin over its span
	// (Δsin the sine increment of the diurnal phase), symmetric around
	// the peak in buckets 1-2 and the trough in buckets 5-6.
	golden := []float64{1101.4, 1386.2, 1386.2, 1101.4, 698.6, 413.8, 413.8, 698.6}
	total := 0.0
	for i, g := range golden {
		if math.Abs(got[i]-g) > 1.5 {
			t.Errorf("bucket %d: expected count %.1f, golden %.1f", i, got[i], g)
		}
		total += got[i]
	}
	if want := spec.MeanRate * spec.Horizon.Seconds(); math.Abs(total-want) > 2 {
		t.Errorf("integrated mass %.1f, want %.1f", total, want)
	}

	// A drawn stream is Poisson around those expectations: check each
	// bucket within 5 sigma and the peak/trough ordering is preserved.
	st := GenerateServing(spec, 7)
	counts := make([]int, 8)
	for _, r := range st.Requests {
		counts[int(r.At*8/spec.Horizon)]++
	}
	for i, c := range counts {
		sigma := math.Sqrt(golden[i])
		if d := math.Abs(float64(c) - golden[i]); d > 5*sigma {
			t.Errorf("bucket %d: drew %d, expected %.0f (Δ=%.0f > 5σ=%.0f)",
				i, c, golden[i], d, 5*sigma)
		}
	}
	if counts[1] <= counts[5] {
		t.Errorf("diurnal shape lost: peak bucket %d <= trough bucket %d",
			counts[1], counts[5])
	}
}

// TestServingFlatRate: DiurnalAmp=0 degenerates to homogeneous Poisson
// with equal bucket expectations.
func TestServingFlatRate(t *testing.T) {
	spec := DefaultServingSpec()
	spec.DiurnalAmp = 0
	b := arrivalBuckets(spec, 4)
	for i, v := range b {
		if math.Abs(v-1800) > 0.01 {
			t.Errorf("flat bucket %d = %f, want 1800", i, v)
		}
	}
}

// TestServingZipfChiSquared: the drawn per-file counts must match the
// Zipf law. A chi-squared statistic over the ranks with expected count
// >= 5 should stay under a generous quantile for the dof involved
// (the draw is literally from the target CDF, so this guards the CDF
// construction and the binary-search sampler, not statistics luck).
func TestServingZipfChiSquared(t *testing.T) {
	spec := DefaultServingSpec()
	spec.Tenants = []TenantClass{{Name: "solo", Weight: 1, LatencyTarget: time.Second}}
	spec.MeanRate = 60 // more mass, tighter test
	st := GenerateServing(spec, 11)
	counts := make([]int, spec.Files)
	for _, r := range st.Requests {
		counts[r.File]++
	}
	n := float64(len(st.Requests))

	chi2, dof := 0.0, 0
	for i, w := range st.FileWeights {
		exp := w * n
		if exp < 5 {
			break // tail ranks: too little mass for the chi-squared approx
		}
		d := float64(counts[i]) - exp
		chi2 += d * d / exp
		dof++
	}
	if dof < 10 {
		t.Fatalf("only %d testable ranks", dof)
	}
	// 99.9th percentile of chi2 is roughly dof + 3*sqrt(2*dof) + 6.
	limit := float64(dof) + 3*math.Sqrt(2*float64(dof)) + 6
	if chi2 > limit {
		t.Errorf("chi-squared %f over %d ranks exceeds %f", chi2, dof, limit)
	}

	// Monotone head: rank 0 must dominate rank 4 by roughly the Zipf
	// ratio 5^1.1 ≈ 5.9 (allow wide slack for sampling noise).
	if counts[0] < 3*counts[4] {
		t.Errorf("head not Zipf-shaped: rank0=%d rank4=%d", counts[0], counts[4])
	}
}

// TestServingTenantMixAndBias: tenant shares follow the weights, and
// SkewBias re-skews per-tenant draws the right way.
func TestServingTenantMixAndBias(t *testing.T) {
	spec := DefaultServingSpec()
	spec.MeanRate = 40
	st := GenerateServing(spec, 3)
	n := float64(len(st.Requests))
	headByTenant := make([]int, 3)
	totByTenant := make([]int, 3)
	for _, r := range st.Requests {
		totByTenant[r.Tenant]++
		if r.File < 4 {
			headByTenant[r.Tenant]++
		}
	}
	wantShare := []float64{0.5, 0.35, 0.15}
	for i, c := range totByTenant {
		share := float64(c) / n
		if math.Abs(share-wantShare[i]) > 0.05 {
			t.Errorf("tenant %d share %.3f, want %.2f±0.05", i, share, wantShare[i])
		}
	}

	// Head mass per tenant: interactive (bias +0.6) must be more
	// head-heavy than batch (bias −0.8) on the top-4 files.
	hi := float64(headByTenant[0]) / float64(totByTenant[0])
	lo := float64(headByTenant[2]) / float64(totByTenant[2])
	if hi <= lo+0.1 {
		t.Errorf("bias had no effect: interactive head share %.3f vs batch %.3f", hi, lo)
	}
}

// TestServingHotFiles: the prefetch set covers the requested mass in
// rank order.
func TestServingHotFiles(t *testing.T) {
	st := GenerateServing(DefaultServingSpec(), 1)
	hot := st.HotFiles(0.5)
	if len(hot) == 0 || len(hot) >= st.Spec.Files/2 {
		t.Fatalf("top-50%% mass spans %d of %d files — Zipf head should be small", len(hot), st.Spec.Files)
	}
	for i, f := range hot {
		if f != i {
			t.Errorf("hot files not rank-ordered: %v", hot)
			break
		}
	}
	mass := 0.0
	for _, f := range hot {
		mass += st.FileWeights[f]
	}
	if mass < 0.5 {
		t.Errorf("hot set covers %.3f < 0.5 of mass", mass)
	}
}

// TestServingSpecHelpers covers the small pure helpers.
func TestServingSpecHelpers(t *testing.T) {
	spec := DefaultServingSpec()
	if spec.FileName(3) != "serve/f-003" {
		t.Errorf("FileName = %q", spec.FileName(3))
	}
	if spec.TotalBlocks() != spec.Files*spec.BlocksPerFile {
		t.Errorf("TotalBlocks = %d", spec.TotalBlocks())
	}
	empty := ServingSpec{}
	if s := GenerateServing(empty, 1); len(s.Requests) != 0 {
		t.Errorf("zero-rate spec drew %d requests", len(s.Requests))
	}
}

// TestServingSpecValidate: every value that would panic inside
// GenerateServing or a run over its stream is an error naming its
// field; the default spec and the zero spec are valid.
func TestServingSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		field string // "" for a valid spec
		edit  func(*ServingSpec)
	}{
		{"", func(s *ServingSpec) {}},
		{"", func(s *ServingSpec) { s.MeanRate, s.Horizon = 0, 0 }},
		{"Files", func(s *ServingSpec) { s.Files = -1 }},
		{"BlocksPerFile", func(s *ServingSpec) { s.BlocksPerFile = 0 }},
		{"BlocksPerFile", func(s *ServingSpec) { s.BlocksPerFile = -4 }},
		{"MeanRate", func(s *ServingSpec) { s.MeanRate = math.Inf(1) }},
		{"MeanRate", func(s *ServingSpec) { s.MeanRate = math.NaN() }},
		{"MeanRate", func(s *ServingSpec) { s.MeanRate = -1 }},
		{"Horizon", func(s *ServingSpec) { s.Horizon = -time.Second }},
	} {
		spec := DefaultServingSpec()
		tc.edit(&spec)
		err := spec.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: unexpected error %v", spec, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), "ServingSpec."+tc.field+" ")):
			t.Errorf("%+v: error %v, want one naming ServingSpec.%s", spec, err, tc.field)
		}
	}
	if err := (ServingSpec{}).Validate(); err == nil || !strings.Contains(err.Error(), "BlocksPerFile") {
		t.Errorf("zero spec: error %v, want BlocksPerFile", err)
	}
}
