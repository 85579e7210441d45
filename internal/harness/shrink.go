package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Repro names a (possibly reduced) scenario: the generator seed plus
// keep-masks over the generated fault and job lists. A nil mask keeps
// everything, so Repro{Seed: n} is the full scenario for seed n. The
// masks index into Generate(seed)'s output, which is deterministic, so
// a repro line is stable across machines and runs.
type Repro struct {
	Seed       int64
	Large      bool   // regenerate from the large-topology envelope
	Serving    bool   // regenerate from the serving-workload envelope
	Policy     string // migration binder the failure was observed under ("": dyrs)
	KeepFaults []int  // nil: all faults
	KeepJobs   []int  // nil: all jobs
}

// Scenario materializes the repro by generating the seed's scenario and
// applying the keep-masks and policy.
func (r Repro) Scenario() Scenario {
	var sc Scenario
	if r.Serving {
		sc = GenerateServing(r.Seed)
	} else {
		sc = generate(r.Seed, r.Large)
	}
	sc.Policy = r.Policy
	if r.KeepFaults != nil {
		sc.Faults = pick(sc.Faults, r.KeepFaults)
	}
	if r.KeepJobs != nil {
		sc.Jobs = pick(sc.Jobs, r.KeepJobs)
	}
	return sc
}

// Events counts the scenario elements the repro retains — the size
// metric shrinking minimizes.
func (r Repro) Events() int {
	sc := r.Scenario()
	return len(sc.Faults) + len(sc.Jobs)
}

func pick[T any](xs []T, keep []int) []T {
	out := make([]T, 0, len(keep))
	for _, i := range keep {
		if i >= 0 && i < len(xs) {
			out = append(out, xs[i])
		}
	}
	return out
}

// String renders the repro's mask in the -repro flag syntax. The empty
// string means "the full scenario".
func (r Repro) String() string {
	var parts []string
	if r.KeepFaults != nil {
		parts = append(parts, "faults="+joinInts(r.KeepFaults))
	}
	if r.KeepJobs != nil {
		parts = append(parts, "jobs="+joinInts(r.KeepJobs))
	}
	return strings.Join(parts, ";")
}

// Command renders the full one-line reproduction command, carrying the
// envelope, the policy name and the shard count the failure was
// observed under.
func (r Repro) Command() string {
	size := ""
	if r.Large {
		size = " -large"
	}
	if r.Serving {
		size = " -serving"
	}
	pol := ""
	if r.Policy != "" {
		pol = " -policy " + r.Policy
	}
	if mask := r.String(); mask != "" {
		return fmt.Sprintf("dyrs-fuzz%s%s -seed %d -repro '%s'", size, pol, r.Seed, mask)
	}
	return fmt.Sprintf("dyrs-fuzz%s%s -seed %d", size, pol, r.Seed)
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "none"
	}
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = strconv.Itoa(x)
	}
	return strings.Join(ss, ",")
}

// ParseRepro parses the -repro flag syntax: semicolon-separated
// `faults=i,j,...` and `jobs=k,...` clauses; "none" or an empty list
// keeps nothing. An empty string keeps the full scenario.
func ParseRepro(seed int64, s string) (Repro, error) {
	r := Repro{Seed: seed}
	if s == "" {
		return r, nil
	}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return r, fmt.Errorf("harness: bad repro clause %q (want key=v1,v2,...)", clause)
		}
		var keep []int
		if val != "none" && val != "" {
			for _, f := range strings.Split(val, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return r, fmt.Errorf("harness: bad repro index %q: %v", f, err)
				}
				keep = append(keep, n)
			}
		} else {
			keep = []int{}
		}
		sort.Ints(keep)
		switch key {
		case "faults":
			r.KeepFaults = keep
		case "jobs":
			r.KeepJobs = keep
		default:
			return r, fmt.Errorf("harness: unknown repro key %q", key)
		}
	}
	return r, nil
}

// Shrink minimizes a failing scenario while the named oracle keeps
// failing, and returns the reduced repro. base carries the seed, the
// generation envelope (Large/Serving), the policy and the shard count
// the failure was observed under — all threaded through every candidate
// run, so envelope- and policy-specific failures shrink too. It assumes
// the full scenario currently fails that oracle (as reported by
// CheckScenario).
func Shrink(base Repro, oracle string) Repro {
	base.KeepFaults, base.KeepJobs = nil, nil
	return ShrinkWith(base, func(sc Scenario) bool {
		for _, f := range CheckScenario(sc) {
			if f.Oracle == oracle {
				return true
			}
		}
		return false
	})
}

// ShrinkWith is the oracle-free reduction core: greedy delta debugging
// that first drops faults, then jobs (keeping at least one job), as
// long as pred still holds on the reduced scenario. Exposed separately
// so the algorithm is testable with synthetic predicates. Serving
// scenarios have no job list, so only the fault mask shrinks there.
func ShrinkWith(base Repro, pred func(Scenario) bool) Repro {
	full := base.Scenario()
	r := base
	r.KeepFaults = seq(len(full.Faults))
	r.KeepJobs = seq(len(full.Jobs))
	r.KeepFaults = minimize(r.KeepFaults, 0, func(keep []int) bool {
		cand := r
		cand.KeepFaults = keep
		return pred(cand.Scenario())
	})
	r.KeepJobs = minimize(r.KeepJobs, 1, func(keep []int) bool {
		cand := r
		cand.KeepJobs = keep
		return pred(cand.Scenario())
	})
	return r
}

func seq(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// minimize greedily removes elements one at a time (restarting after
// each success) until no single removal keeps pred true or the floor is
// reached. For the few-element schedules the generator draws, this
// one-minimal reduction is as strong as full ddmin at a fraction of the
// runs.
func minimize(keep []int, floor int, pred func([]int) bool) []int {
	for {
		if len(keep) <= floor {
			return keep
		}
		shrunk := false
		for i := range keep {
			cand := make([]int, 0, len(keep)-1)
			cand = append(cand, keep[:i]...)
			cand = append(cand, keep[i+1:]...)
			if pred(cand) {
				keep = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return keep
		}
	}
}
