package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dyrs/internal/sim"
)

// This file defines the multi-tenant serving workload (ROADMAP item 2):
// an open-loop stream of block-read requests against a shared file
// population, with
//
//   - seeded Zipfian block popularity (a handful of hot files absorb
//     most reads — the access pattern that makes disk-to-memory
//     migration of "cold" data pay off when the popularity ranking
//     shifts);
//   - diurnal arrival-rate curves (a nonhomogeneous Poisson process
//     whose rate follows a 24h-shaped sinusoid, compressed to the
//     simulated horizon);
//   - per-tenant request classes with QoS latency targets, so
//     experiments can produce per-tenant scorecards (p99 read latency
//     vs target, hit rate).
//
// Everything is deterministic given the spec and seed: all randomness
// flows through one *rand.Rand, arrival times are drawn bucket-by-bucket
// with exponential gaps, and ties in the popularity CDF are resolved by
// index. No wall clock, no map iteration.

// TenantClass is a QoS class for one tenant in the serving mix.
type TenantClass struct {
	// Name labels the tenant in scorecards ("interactive", "batch"...).
	Name string
	// Weight is the tenant's share of the request stream (relative).
	Weight float64
	// LatencyTarget is the per-request QoS target; the scorecard reports
	// the fraction of requests served within it and the p99 against it.
	LatencyTarget time.Duration
	// SkewBias shifts the tenant's draws within the shared popularity
	// ranking: 0 samples the global Zipf, positive values re-skew toward
	// the head (interactive tenants hammer hot data), negative toward
	// the tail (batch scans touch cold data).
	SkewBias float64
}

// DefaultTenants is the three-class mix the serving experiments use:
// an interactive tenant with a tight target on hot data, a general
// api tenant on the global distribution, and a batch tenant biased
// toward the cold tail with a loose target.
func DefaultTenants() []TenantClass {
	return []TenantClass{
		{Name: "interactive", Weight: 0.5, LatencyTarget: 120 * time.Millisecond, SkewBias: 0.6},
		{Name: "api", Weight: 0.35, LatencyTarget: 400 * time.Millisecond, SkewBias: 0},
		{Name: "batch", Weight: 0.15, LatencyTarget: 5 * time.Second, SkewBias: -0.8},
	}
}

// ServingSpec parameterizes one serving workload draw.
type ServingSpec struct {
	// Files is the number of files in the served population.
	Files int
	// BlocksPerFile sizes each file (the block is the request unit).
	BlocksPerFile int
	// ZipfS is the Zipf exponent over files (1.0-1.3 covers measured
	// serving traces; higher = hotter head).
	ZipfS float64
	// MeanRate is the time-averaged request arrival rate (req/sec).
	MeanRate float64
	// DiurnalAmp in [0,1) scales the sinusoidal rate swing: the
	// instantaneous rate is MeanRate*(1 + DiurnalAmp*sin(2π·phase)).
	// 0 gives a homogeneous Poisson stream.
	DiurnalAmp float64
	// PeakPhase in [0,1) positions the diurnal peak within the horizon
	// (0.25 = peak at one quarter in, like midday in a 0h-24h window).
	PeakPhase float64
	// Horizon is the span requests are drawn over (the simulated "day").
	Horizon time.Duration
	// Tenants is the QoS class mix; empty means DefaultTenants.
	Tenants []TenantClass
}

// DefaultServingSpec is the testbed-scale serving mix: 64 files of 4
// blocks, a hot head (s=1.1), ~12 req/s averaged over a compressed
// 10-minute "day" with a ±60% diurnal swing.
func DefaultServingSpec() ServingSpec {
	return ServingSpec{
		Files:         64,
		BlocksPerFile: 4,
		ZipfS:         1.1,
		MeanRate:      12,
		DiurnalAmp:    0.6,
		PeakPhase:     0.25,
		Horizon:       10 * time.Minute,
	}
}

// Validate reports the first field that would make GenerateServing or
// a run over its stream panic: a negative Files or Horizon, a
// BlocksPerFile below one, or a MeanRate that is negative or not
// finite.
func (s ServingSpec) Validate() error {
	switch {
	case s.Files < 0:
		return fmt.Errorf("workload: ServingSpec.Files must not be negative, got %d", s.Files)
	case s.BlocksPerFile < 1:
		return fmt.Errorf("workload: ServingSpec.BlocksPerFile must be at least 1, got %d", s.BlocksPerFile)
	case math.IsNaN(s.MeanRate) || math.IsInf(s.MeanRate, 0) || s.MeanRate < 0:
		return fmt.Errorf("workload: ServingSpec.MeanRate must be finite and non-negative, got %v", s.MeanRate)
	case s.Horizon < 0:
		return fmt.Errorf("workload: ServingSpec.Horizon must not be negative, got %v", s.Horizon)
	}
	return nil
}

// FileName returns the DFS path of the i-th served file.
func (s ServingSpec) FileName(i int) string { return fmt.Sprintf("serve/f-%03d", i) }

// TotalBlocks is the served block population size.
func (s ServingSpec) TotalBlocks() int { return s.Files * s.BlocksPerFile }

// tenants returns the effective tenant mix.
func (s ServingSpec) tenants() []TenantClass {
	if len(s.Tenants) == 0 {
		return DefaultTenants()
	}
	return s.Tenants
}

// ServingRequest is one drawn request: at time At, tenant Tenant reads
// block Block (index within file File).
type ServingRequest struct {
	At     time.Duration
	Tenant int // index into the spec's tenant mix
	File   int // file index (popularity rank order)
	Block  int // block index within the file
}

// ServingStream is the fully drawn open-loop request schedule plus the
// distributions it was drawn from, for oracles and scorecards.
type ServingStream struct {
	Spec     ServingSpec
	Seed     int64
	Requests []ServingRequest
	// FileWeights is the normalized Zipf popularity over files
	// (rank-ordered: FileWeights[0] is the hottest file).
	FileWeights []float64
}

// zipfCDF builds the cumulative popularity distribution over n ranks
// with exponent s (weight of rank i ∝ 1/(i+1)^s), re-skewed by bias:
// the effective exponent is max(0.05, s+bias), so positive bias
// concentrates mass at the head and negative bias flattens toward the
// tail without ever inverting the ranking.
func zipfCDF(n int, s, bias float64) []float64 {
	e := s + bias
	if e < 0.05 {
		e = 0.05
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), e)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sampleCDF draws a rank from a cumulative distribution: binary search
// for the first rank whose cumulative mass covers u.
func sampleCDF(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// rate evaluates the instantaneous arrival rate at time t, the diurnal
// sinusoid around MeanRate with the peak at PeakPhase of the horizon.
func (s ServingSpec) rate(t time.Duration) float64 {
	if s.DiurnalAmp == 0 || s.Horizon <= 0 {
		return s.MeanRate
	}
	phase := float64(t)/float64(s.Horizon) - s.PeakPhase
	// Peak at phase 0: cos is 1 at the configured peak.
	return s.MeanRate * (1 + s.DiurnalAmp*math.Cos(2*math.Pi*phase))
}

// GenerateServing draws the full request stream for a seed. The draw is
// a nonhomogeneous Poisson process realized by thinning a homogeneous
// process at the peak rate: exponential gaps at rate λmax, each arrival
// kept with probability rate(t)/λmax. Thinning keeps the draw O(N) and
// exact, and — unlike bucket-local resampling — keeps the gap stream
// independent of how observers bucket time afterwards.
func GenerateServing(spec ServingSpec, seed int64) *ServingStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5e41))
	tenants := spec.tenants()

	// Tenant pick CDF.
	tcdf := make([]float64, len(tenants))
	tw := 0.0
	for i, tc := range tenants {
		tw += tc.Weight
		tcdf[i] = tw
	}
	for i := range tcdf {
		tcdf[i] /= tw
	}

	// Per-tenant file popularity CDFs (shared ranking, tenant bias).
	fcdfs := make([][]float64, len(tenants))
	for i, tc := range tenants {
		fcdfs[i] = zipfCDF(spec.Files, spec.ZipfS, tc.SkewBias)
	}
	global := zipfCDF(spec.Files, spec.ZipfS, 0)
	weights := make([]float64, spec.Files)
	prev := 0.0
	for i, c := range global {
		weights[i] = c - prev
		prev = c
	}

	st := &ServingStream{Spec: spec, Seed: seed, FileWeights: weights}
	lambdaMax := spec.MeanRate * (1 + spec.DiurnalAmp)
	if lambdaMax <= 0 {
		return st
	}
	// The rate integrates to MeanRate over the horizon (the sinusoid
	// spans one full period), so the arrival count is Poisson with that
	// mean: sizing the log four standard deviations above it makes one
	// allocation hold the draw, and a draw past it doubles the log.
	if mean := spec.MeanRate * spec.Horizon.Seconds(); mean > 0 {
		st.Requests = make([]ServingRequest, 0, int(mean+4*math.Sqrt(mean))+16)
	}
	for t := time.Duration(0); ; {
		gap := rng.ExpFloat64() / lambdaMax
		t += sim.FloatDuration(gap * float64(time.Second))
		if t >= spec.Horizon {
			break
		}
		if rng.Float64()*lambdaMax > spec.rate(t) {
			continue // thinned out
		}
		tenant := sampleCDF(tcdf, rng.Float64())
		file := sampleCDF(fcdfs[tenant], rng.Float64())
		block := rng.Intn(spec.BlocksPerFile)
		if len(st.Requests) == cap(st.Requests) {
			st.Requests = append(make([]ServingRequest, 0, 2*cap(st.Requests)), st.Requests...)
		}
		st.Requests = append(st.Requests, ServingRequest{
			At: t, Tenant: tenant, File: file, Block: block,
		})
	}
	return st
}

// HotFiles returns the file indexes covering the top `frac` of global
// popularity mass, in rank order — the prefetch set a cache-warming
// policy would migrate ahead of the peak.
func (st *ServingStream) HotFiles(frac float64) []int {
	var out []int
	mass := 0.0
	for i, w := range st.FileWeights {
		if mass >= frac {
			break
		}
		mass += w
		out = append(out, i)
	}
	return out
}
