package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dyrs/internal/runner"
)

// VerifyRow is one experiment's determinism check: the canonical-JSON
// hashes of a serial run and a parallel run at the same seed.
type VerifyRow struct {
	Name         string
	SerialHash   string
	ParallelHash string
	// Serial/Parallel are the wall-clock durations of the two runs.
	Serial, Parallel time.Duration
}

// OK reports whether the two runs produced identical results.
func (r VerifyRow) OK() bool { return r.SerialHash == r.ParallelHash }

// VerifyReport is the outcome of a full determinism check.
type VerifyReport struct {
	Seed int64
	Jobs int
	Rows []VerifyRow
}

// OK reports whether every experiment was deterministic.
func (r VerifyReport) OK() bool {
	for _, row := range r.Rows {
		if !row.OK() {
			return false
		}
	}
	return true
}

// Divergent returns the names of experiments whose runs diverged.
func (r VerifyReport) Divergent() []string {
	var out []string
	for _, row := range r.Rows {
		if !row.OK() {
			out = append(out, row.Name)
		}
	}
	return out
}

// VerifyDeterminism runs every registered experiment twice at the same
// seed — once on a single worker (observationally a serial loop), once
// on a pool of the given size — and hashes each experiment's canonical
// JSON. Any divergence means "identical seeds give identical results"
// has been broken, e.g. by shared mutable state leaking between
// concurrently running experiments. Progress events from both passes
// are forwarded to progress when non-nil.
func VerifyDeterminism(seed int64, jobs int, progress func(runner.Event)) (VerifyReport, error) {
	return verifyExperiments(Registry(), seed, jobs, progress)
}

// verifyExperiments is VerifyDeterminism over an explicit registry,
// split out so tests can inject a deliberately divergent experiment.
func verifyExperiments(reg []Experiment, seed int64, jobs int, progress func(runner.Event)) (VerifyReport, error) {
	if jobs <= 0 { // mirror the runner's default so the report names the real pool size
		jobs = runtime.GOMAXPROCS(0)
	}
	rep := VerifyReport{Seed: seed, Jobs: jobs}
	serial := runner.Run(Jobs(reg, seed), runner.Options{Jobs: 1, Progress: progress})
	if err := runner.FirstError(serial); err != nil {
		return rep, fmt.Errorf("serial pass: %w", err)
	}
	parallel := runner.Run(Jobs(reg, seed), runner.Options{Jobs: jobs, Progress: progress})
	if err := runner.FirstError(parallel); err != nil {
		return rep, fmt.Errorf("parallel pass: %w", err)
	}
	for i, exp := range reg {
		sh, err := ResultHash(exp, serial[i].Value)
		if err != nil {
			return rep, fmt.Errorf("hash %s (serial): %w", exp.Name, err)
		}
		ph, err := ResultHash(exp, parallel[i].Value)
		if err != nil {
			return rep, fmt.Errorf("hash %s (parallel): %w", exp.Name, err)
		}
		rep.Rows = append(rep.Rows, VerifyRow{
			Name: exp.Name, SerialHash: sh, ParallelHash: ph,
			Serial: serial[i].Elapsed, Parallel: parallel[i].Elapsed,
		})
	}
	return rep, nil
}

// ResultHash returns the SHA-256 of the experiment's canonical JSON
// form: the result merged into an otherwise-empty FullReport and
// marshaled with encoding/json, whose sorted map keys make the encoding
// canonical.
func ResultHash(exp Experiment, result any) (string, error) {
	rep := &FullReport{}
	exp.Merge(rep, result)
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
