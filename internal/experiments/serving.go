package experiments

import (
	"fmt"
	"time"

	"dyrs/internal/cache"
	"dyrs/internal/cluster"
	"dyrs/internal/dfs"
	"dyrs/internal/migration"
	"dyrs/internal/policy"
	"dyrs/internal/sim"
	"dyrs/internal/trace"
	"dyrs/internal/workload"
)

// This file is ROADMAP item 2: the multi-tenant serving experiment. An
// open-loop request stream (internal/workload's Zipf + diurnal draw)
// reads blocks through the DFS while a coordinated cache keeps hot
// blocks resident and — under migrating policies — the migration
// framework prefetches the popularity head ahead of each epoch. The
// experiment runs the same drawn stream under every policy in
// internal/policy (plus the plain-HDFS baseline) and scores each
// per tenant: hit rate, p99 read latency against the tenant's QoS
// target, and the migration lead-time distribution.

// ServingLoadOptions tunes the shared serving driver.
type ServingLoadOptions struct {
	// CacheBudget is the per-node coordinated-cache budget. The cache
	// always runs LRU: it is the only eviction policy with a fully
	// deterministic victim order, and the serving rows participate in
	// the byte-identical determinism contract.
	CacheBudget sim.Bytes
	// PrefetchFrac is the popularity mass the migrating policies
	// prefetch at each epoch boundary (0 disables prefetch).
	PrefetchFrac float64
	// Epochs splits the horizon into prefetch epochs: each boundary
	// migrates the hot set under a fresh job and evicts the previous
	// epoch's job, exercising the migrate/evict/refcount cycle.
	Epochs int
	// Drain is simulated time appended after the horizon so in-flight
	// reads and migrations settle before scoring.
	Drain time.Duration
}

// DefaultServingLoadOptions: 4 GB cache per node, top-half prefetch,
// four epochs.
func DefaultServingLoadOptions() ServingLoadOptions {
	return ServingLoadOptions{
		CacheBudget:  4 * sim.GB,
		PrefetchFrac: 0.5,
		Epochs:       4,
		Drain:        60 * time.Second,
	}
}

// TenantScore is the per-tenant slice of one policy's scorecard.
type TenantScore struct {
	Tenant string `json:"tenant"`
	// Issued/Served count the tenant's requests (Served excludes reads
	// that failed because every replica died mid-flight).
	Issued int `json:"issued"`
	Served int `json:"served"`
	// MemReads counts reads served from a memory replica (cache or
	// migration buffer); HitRate is MemReads/Served.
	MemReads int     `json:"mem_reads"`
	HitRate  float64 `json:"hit_rate"`
	// P99Ms is the tenant's 99th-percentile read latency; TargetMs its
	// QoS target; WithinTarget the fraction of served reads meeting it.
	P99Ms        float64 `json:"p99_ms"`
	TargetMs     float64 `json:"target_ms"`
	WithinTarget float64 `json:"within_target"`
}

// ServingPolicyRow is one policy's full scorecard.
type ServingPolicyRow struct {
	Policy string `json:"policy"`
	// Issued/Served/MemReads aggregate across tenants.
	Issued   int     `json:"issued"`
	Served   int     `json:"served"`
	MemReads int     `json:"mem_reads"`
	HitRate  float64 `json:"hit_rate"`
	// Cache-layer counters (hits are reads already redirected to a
	// resident replica; distinct from MemReads, which also counts
	// migration-buffer reads).
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	CacheRate   float64 `json:"cache_rate"`
	// Migration-framework counters (zero for the HDFS baseline).
	Migrated    int `json:"migrated"`
	MemoryHits  int `json:"memory_hits"`
	MissedReads int `json:"missed_reads"`
	Dropped     int `json:"dropped"`
	// Lead-time quantiles from the migration.lead_ns histogram: how far
	// ahead of its first read each prefetched block arrived in memory.
	LeadP50Sec float64 `json:"lead_p50_seconds"`
	LeadP99Sec float64 `json:"lead_p99_seconds"`

	Tenants []TenantScore `json:"tenants"`
}

// ServingReport is the serving experiment result: one row per policy,
// every row scored against the identical drawn request stream.
type ServingReport struct {
	Scenario string             `json:"scenario"`
	Requests int                `json:"requests"`
	Rows     []ServingPolicyRow `json:"rows"`
}

// ServingOptions parameterizes one serving experiment run.
type ServingOptions struct {
	// Scenario names the preset in reports.
	Scenario string
	// Workers and Racks shape the cluster.
	Workers, Racks int
	// Seed drives the stream draw and the simulation.
	Seed int64
	// Spec is the workload draw; zero value means DefaultServingSpec.
	Spec workload.ServingSpec
	// Policies lists the configurations to score: "hdfs" (baseline, no
	// migration) or any policy name from policy.Names. Empty means hdfs
	// + every policy.
	Policies []string
}

// ServingSmokeOptions is the CI-sized preset: the paper-scale cluster
// plus one rack boundary, the default diurnal stream at a rate the
// 8-node cluster can serve below saturation (the default 12 req/s of
// 256 MB blocks is a 3 GB/s open-loop demand — an overload study, not a
// QoS scorecard), all policies. Small enough to run twice in the
// determinism gate.
func ServingSmokeOptions(seed int64) ServingOptions {
	spec := workload.DefaultServingSpec()
	spec.MeanRate = 5
	return ServingOptions{
		Scenario: "serving-smoke",
		Workers:  8,
		Racks:    2,
		Seed:     seed,
		Spec:     spec,
	}
}

// Serving1kOptions is the macro-benchmark preset: 1,000 nodes, a wider
// file population, a heavier request rate, DYRS only (the benchmark
// measures throughput of the serving path, not the policy comparison).
func Serving1kOptions(seed int64) ServingOptions {
	spec := DefaultServingSpec1k()
	return ServingOptions{
		Scenario: "serving1k",
		Workers:  1000,
		Racks:    20,
		Seed:     seed,
		Spec:     spec,
		Policies: []string{"dyrs"},
	}
}

// DefaultServingSpec1k widens the default spec to a datacenter-shaped
// population: 1024 files, ~80 req/s over a 20-minute day.
func DefaultServingSpec1k() workload.ServingSpec {
	spec := workload.DefaultServingSpec()
	spec.Files = 1024
	spec.MeanRate = 80
	spec.Horizon = 20 * time.Minute
	return spec
}

// servingPolicies expands the option list, defaulting to the full
// comparison set.
func servingPolicies(opt ServingOptions) []string {
	if len(opt.Policies) > 0 {
		return opt.Policies
	}
	return append([]string{"hdfs"}, policy.Names()...)
}

// servingEnv names the environment one serving policy runs in: "hdfs"
// is the non-migrating baseline, any other name a binder swapped into
// the DYRS coordinator.
func servingEnv(opt ServingOptions, name string) (Policy, Options) {
	envOpt := Options{Workers: opt.Workers, Racks: opt.Racks, Seed: opt.Seed, Trace: true}
	if name == "hdfs" {
		return HDFS, envOpt
	}
	envOpt.MigBinder = name
	return DYRS, envOpt
}

// RunServing draws the request stream once and scores every requested
// policy against it with DefaultServingLoadOptions.
func RunServing(opt ServingOptions) (ServingReport, error) {
	if opt.Spec.Files == 0 {
		opt.Spec = workload.DefaultServingSpec()
	}
	if opt.Spec.Horizon < 0 {
		return ServingReport{}, fmt.Errorf("serving %s: Spec.Horizon must not be negative, got %v", opt.Scenario, opt.Spec.Horizon)
	}
	// Every policy's environment is checked before anything runs, so an
	// unknown policy name or a negative cluster size is an error here
	// and never a panic inside NewEnv.
	policies := servingPolicies(opt)
	for _, name := range policies {
		_, envOpt := servingEnv(opt, name)
		if err := envOpt.Validate(); err != nil {
			return ServingReport{}, fmt.Errorf("serving %s/%s: %w", opt.Scenario, name, err)
		}
	}
	stream := workload.GenerateServing(opt.Spec, opt.Seed)
	rep := ServingReport{Scenario: opt.Scenario, Requests: len(stream.Requests)}
	for _, name := range policies {
		env := NewEnv(servingEnv(opt, name))
		row, err := RunServingLoad(env, stream, DefaultServingLoadOptions())
		env.Close()
		if err != nil {
			return rep, fmt.Errorf("serving %s/%s: %w", opt.Scenario, name, err)
		}
		row.Policy = name
		rep.Rows = append(rep.Rows, *row)
	}
	return rep, nil
}

// RunServingLoad executes one drawn stream against an already-built
// environment and returns the scorecard. It is the shared driver: the
// serving experiment calls it per policy, and the fuzz harness calls it
// to subject serving scenarios to the oracle battery. The caller owns
// env (and must Close it); the driver creates the files, attaches the
// cache, runs to horizon+drain, scores, and flushes the cache so the
// end state satisfies the usual no-buffered-bytes invariants.
func RunServingLoad(env *Env, stream *workload.ServingStream, opt ServingLoadOptions) (*ServingPolicyRow, error) {
	spec := stream.Spec
	tenants := spec.Tenants
	if len(tenants) == 0 {
		tenants = workload.DefaultTenants()
	}
	blockSize := env.FS.Config().BlockSize

	// Population.
	fileBlocks := make([][]dfs.BlockID, spec.Files)
	for i := 0; i < spec.Files; i++ {
		name := spec.FileName(i)
		if err := env.CreateInput(name, sim.Bytes(spec.BlocksPerFile)*blockSize); err != nil {
			return nil, err
		}
		f, err := env.FS.File(name)
		if err != nil {
			return nil, err
		}
		fileBlocks[i] = f.Blocks
	}

	// Coordinated cache (LRU: deterministic victim order).
	ch, err := cache.New(env.FS, opt.CacheBudget, cache.LRU)
	if err != nil {
		return nil, err
	}

	// Epoch prefetch of the popularity head. Each epoch migrates the hot
	// set under a fresh job and then evicts the previous epoch's job;
	// blocks shared between the two stay resident via the coordinator's
	// reference counts.
	hot := stream.HotFiles(opt.PrefetchFrac)
	hotSet := make([]bool, spec.Files)
	hotNames := make([]string, len(hot))
	for i, f := range hot {
		hotSet[f] = true
		hotNames[i] = spec.FileName(f)
	}
	const jobBase = migration.JobID(1 << 20)
	currentJob := migration.JobID(0)
	epochs := opt.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	if env.Coord != nil && len(hot) > 0 {
		for e := 0; e < epochs; e++ {
			e := e
			env.Eng.At(sim.Time(spec.Horizon/time.Duration(epochs)*time.Duration(e)), func() {
				job := jobBase + migration.JobID(e)
				if err := env.Coord.Migrate(job, hotNames, false); err == nil {
					currentJob = job
				}
				if e > 0 {
					env.Coord.Evict(jobBase + migration.JobID(e-1))
				}
			})
		}
	}

	// The open-loop request stream. Requests land round-robin across the
	// cluster (the serving frontend of tenant t on request i reads from
	// node (i+t) mod workers); latency and hit observations go through
	// the run's tracer histograms.
	workers := env.Cl.Size()
	tr := env.Tracer()
	latHists := make([]*trace.Hist, len(tenants))
	for i, tc := range tenants {
		latHists[i] = tr.Hist("serving.lat_ns." + tc.Name)
	}
	issued := make([]int, len(tenants))
	served := make([]int, len(tenants))
	memReads := make([]int, len(tenants))
	within := make([]int, len(tenants))
	for i, r := range stream.Requests {
		r := r
		at := cluster.NodeID((i + r.Tenant) % workers)
		id := fileBlocks[r.File][r.Block]
		env.Eng.At(sim.Time(r.At), func() {
			issued[r.Tenant]++
			if env.Coord != nil && currentJob != 0 && hotSet[r.File] {
				env.Coord.NoteRead(currentJob, id)
			}
			tenant := r.Tenant
			err := env.FS.ReadBlock(at, id, func(res dfs.ReadResult) {
				if res.Failed {
					return
				}
				served[tenant]++
				if res.Source.FromMemory() {
					memReads[tenant]++
				}
				lat := time.Duration(res.Duration())
				latHists[tenant].Observe(int64(lat))
				if lat <= tenants[tenant].LatencyTarget {
					within[tenant]++
				}
			})
			if err != nil {
				// ErrNoReplica: recorded as unserved.
				_ = err
			}
		})
	}

	// Run, then drain: evict the final epoch job, let flows settle, and
	// scavenge so nothing stays buffered.
	env.Eng.RunUntil(sim.Time(spec.Horizon))
	if env.Coord != nil && len(hot) > 0 {
		env.Coord.Evict(jobBase + migration.JobID(epochs-1))
	}
	env.Eng.RunFor(sim.Duration(opt.Drain))
	if env.Coord != nil {
		env.Coord.ScavengeAll()
		env.Eng.RunFor(sim.Duration(5 * time.Second))
	}

	// Scorecard.
	row := &ServingPolicyRow{
		CacheHits:   ch.Hits,
		CacheMisses: ch.Misses,
		CacheRate:   ch.HitRate(),
	}
	for i, tc := range tenants {
		ts := TenantScore{
			Tenant:   tc.Name,
			Issued:   issued[i],
			Served:   served[i],
			MemReads: memReads[i],
			TargetMs: float64(tc.LatencyTarget) / float64(time.Millisecond),
			P99Ms:    latHists[i].Quantile(0.99) / float64(time.Millisecond),
		}
		if ts.Served > 0 {
			ts.HitRate = float64(ts.MemReads) / float64(ts.Served)
			ts.WithinTarget = float64(within[i]) / float64(ts.Served)
		}
		row.Issued += ts.Issued
		row.Served += ts.Served
		row.MemReads += ts.MemReads
		row.Tenants = append(row.Tenants, ts)
	}
	if row.Served > 0 {
		row.HitRate = float64(row.MemReads) / float64(row.Served)
	}
	if env.Coord != nil {
		st := env.Coord.Stats()
		row.Migrated = st.Migrated
		row.MemoryHits = st.MemoryHits
		row.MissedReads = st.MissedReads
		row.Dropped = st.Dropped
	}
	if lead := tr.Hist("migration.lead_ns"); lead.Count() > 0 {
		row.LeadP50Sec = lead.Quantile(0.5) / float64(time.Second)
		row.LeadP99Sec = lead.Quantile(0.99) / float64(time.Second)
	}

	// Leave the environment clean: drop cache residency so end-of-run
	// invariants (no memory replicas) hold under every policy.
	ch.Flush()
	return row, nil
}

// String renders the serving scorecard tables.
func (r ServingReport) String() string {
	t := NewTable(fmt.Sprintf("Serving (%s) — %d requests, per-policy scorecard", r.Scenario, r.Requests),
		"policy", "served", "hit rate", "cache rate", "migrated", "mem hits", "lead p50/p99")
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			fmt.Sprintf("%d/%d", row.Served, row.Issued),
			fmt.Sprintf("%.3f", row.HitRate),
			fmt.Sprintf("%.3f", row.CacheRate),
			fmt.Sprintf("%d", row.Migrated),
			fmt.Sprintf("%d", row.MemoryHits),
			fmt.Sprintf("%.1fs/%.1fs", row.LeadP50Sec, row.LeadP99Sec))
	}
	out := t.String()

	tt := NewTable("Serving — per-tenant QoS",
		"policy", "tenant", "served", "hit rate", "p99", "target", "within")
	for _, row := range r.Rows {
		for _, ts := range row.Tenants {
			tt.AddRow(row.Policy, ts.Tenant,
				fmt.Sprintf("%d", ts.Served),
				fmt.Sprintf("%.3f", ts.HitRate),
				fmt.Sprintf("%.0fms", ts.P99Ms),
				fmt.Sprintf("%.0fms", ts.TargetMs),
				fmt.Sprintf("%.3f", ts.WithinTarget))
		}
	}
	return out + "\n" + tt.String()
}

// servingExperiment registers the smoke preset so the serving path sits
// inside the determinism gate and -verify on every CI run.
func servingExperiment() Experiment {
	return Experiment{
		Name:    "serving",
		Summary: "extension: multi-tenant serving workload, per-policy/per-tenant QoS scorecards",
		Run: func(seed int64) (any, error) {
			return RunServing(ServingSmokeOptions(seed))
		},
		Render: func(result any, sel Selection) []string {
			return []string{result.(ServingReport).String()}
		},
		Merge: func(rep *FullReport, result any) {
			r := result.(ServingReport)
			rep.Serving = r.Rows
		},
	}
}
