package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one registered unit of the evaluation: a named, seeded,
// independent simulation plus its text rendering and its slot in the
// aggregated JSON report. The registry is what dyrs-bench's figure
// dispatch, the parallel runner and the determinism verifier iterate
// over.
type Experiment struct {
	// Name is the canonical experiment name (accepted by -only).
	Name string
	// Aliases are the figure/table names this experiment covers, also
	// accepted by -only (e.g. the trace experiment answers to fig1,
	// fig2 and fig3).
	Aliases []string
	// Summary is a one-line description for listings and errors.
	Summary string
	// Run executes the experiment from a fresh seeded environment.
	// Identical seeds must give identical results — dyrs-bench -verify
	// enforces this by hashing the canonical JSON of two runs.
	Run func(seed int64) (any, error)
	// Render returns the text sections requested by the selection, in
	// presentation order. The result argument is whatever Run returned.
	// Nil means the result's String() as one section.
	Render func(result any, sel Selection) []string
	// Merge folds the result into the aggregated JSON report.
	Merge func(rep *FullReport, result any)
}

// Covers reports whether the experiment answers to the given
// (lower-cased) name.
func (e Experiment) Covers(name string) bool {
	if e.Name == name {
		return true
	}
	for _, a := range e.Aliases {
		if a == name {
			return true
		}
	}
	return false
}

// Sections returns the text sections of result that sel requests:
// Render's, or the result's String() when Render is nil.
func (e Experiment) Sections(result any, sel Selection) []string {
	if e.Render == nil {
		return []string{result.(fmt.Stringer).String()}
	}
	return e.Render(result, sel)
}

// Registry returns every experiment in presentation order (the order
// figures and tables appear in the paper, then the extension studies).
// Each call builds a fresh slice, so callers may reorder it freely.
func Registry() []Experiment {
	return []Experiment{
		traceExperiment(),
		hiveExperiment(),
		swimExperiment(),
		fig8Experiment(),
		tableIIExperiment(),
		fig10Experiment(),
		fig11Experiment(),
		motivationExperiment(),
		orderExperiment(),
		hotcoldExperiment(),
		iterativeExperiment(),
		scaleExperiment(),
		scaleShardExperiment(),
		servingExperiment(),
	}
}

// Selection is the set of requested experiment/figure names. An empty
// (or nil) selection means "everything".
type Selection map[string]bool

// Has reports whether any of the names was requested. An empty
// selection has everything.
func (s Selection) Has(names ...string) bool {
	if len(s) == 0 {
		return true
	}
	for _, n := range names {
		if s[n] {
			return true
		}
	}
	return false
}

// wantsAll reports whether the named experiment was selected as a
// whole — either by the empty selection or by its canonical name — in
// which case Render emits every section rather than individual figures.
func (s Selection) wantsAll(name string) bool {
	return len(s) == 0 || s[name]
}

// ValidNames returns every accepted experiment name: canonical names in
// registry order, then all aliases, sorted.
func ValidNames() []string {
	var names, aliases []string
	for _, e := range Registry() {
		names = append(names, e.Name)
		aliases = append(aliases, e.Aliases...)
	}
	sort.Strings(aliases)
	return append(names, aliases...)
}

// Select parses a comma-separated -only list against the registry. It
// returns the matched experiments in registry order plus the selection
// set for Render. An empty list selects every experiment. Unknown names
// are an error listing the valid names.
func Select(only string) ([]Experiment, Selection, error) {
	reg := Registry()
	if strings.TrimSpace(only) == "" {
		return reg, nil, nil
	}
	sel := Selection{}
	var unknown []string
	for _, raw := range strings.Split(only, ",") {
		name := strings.TrimSpace(strings.ToLower(raw))
		if name == "" {
			continue
		}
		found := false
		for _, e := range reg {
			if e.Covers(name) {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, name)
			continue
		}
		sel[name] = true
	}
	if len(unknown) > 0 {
		return nil, nil, fmt.Errorf("unknown experiment name(s) %s; valid names: %s",
			strings.Join(unknown, ", "), strings.Join(ValidNames(), " "))
	}
	if len(sel) == 0 { // e.g. -only "," — nothing actually named
		return reg, nil, nil
	}
	var picked []Experiment
	for _, e := range reg {
		for name := range sel {
			if e.Covers(name) {
				picked = append(picked, e)
				break
			}
		}
	}
	return picked, sel, nil
}
