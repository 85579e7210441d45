package dyrs

// Determinism lint: the simulator's reproducibility contract — same seed,
// byte-identical output — is easy to break with one careless call. This
// test statically forbids the usual suspects in internal/ non-test code:
//
//   - time.Now(): wall-clock time in simulated logic. Genuinely
//     wall-clock sites (runner job timing, the ops surface) carry a
//     //lint:walltime comment on the same line, and only files on the
//     audited walltimeFiles allowlist may carry that waiver at all.
//   - the global math/rand source (rand.Intn etc. without an explicit
//     *rand.Rand): unseeded, process-global randomness. rand.New /
//     rand.NewSource with explicit seeds are fine.
//   - any map type inside internal/sim or internal/compute: the
//     simulation core and the compute scheduler order everything by
//     slices and explicit comparisons precisely so no map iteration can
//     leak nondeterministic order into event, flow or task handling.
//     Other layers may use maps but must sort before emitting ordered
//     output (see Coordinator.Evict).
//   - concurrency inside internal/sim: goroutines, channels, select, and
//     the sync/sync/atomic packages. Model code must never race the
//     virtual clock — the ONLY sanctioned concurrency is the sharded
//     executor's audited worker pool (internal/sim/shard.go), whose
//     lines carry a //lint:shardsync waiver. Any new waiver is a signal
//     the sharding design is changing and deserves review.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// walltimeWaiver marks an intentionally wall-clock time.Now call.
const walltimeWaiver = "lint:walltime"

// walltimeFiles is the audited allowlist of files that may carry
// //lint:walltime waivers at all. The waiver exists for code that
// genuinely measures the real world — the worker-pool runner's per-job
// timing, the ops surface (run manifests) — and nowhere else. A waiver
// appearing outside this list fails the lint even with the comment: add
// the file here, in review, or use the engine clock.
var walltimeFiles = map[string]bool{
	"internal/obs/manifest.go":  true,
	"internal/runner/runner.go": true,
}

// shardsyncWaiver marks an audited concurrency primitive in the sharded
// executor. Only internal/sim lines carrying this comment may use
// goroutines, channels, select, or sync — everything else in the sim
// core stays single-threaded per shard.
const shardsyncWaiver = "lint:shardsync"

// globalRandFuncs are the math/rand top-level functions backed by the
// shared global source.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
}

func TestDeterminismLint(t *testing.T) {
	var violations []string
	fset := token.NewFileSet()

	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		violations = append(violations, lintFile(fset, path, file)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

func lintFile(fset *token.FileSet, path string, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", path, p.Line, fmt.Sprintf(format, args...)))
	}

	// Lines carrying waiver comments, by kind. Walltime waivers are
	// additionally quarantined to the audited file allowlist: a stray
	// waiver comment in any other file is itself a violation, so the
	// set of wall-clock call sites can only grow through review here.
	waived := map[int]bool{}
	syncWaived := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			if strings.Contains(c.Text, walltimeWaiver) {
				if !walltimeFiles[filepath.ToSlash(path)] {
					report(c.Pos(), "//%s waiver outside the audited allowlist (walltimeFiles in determinism_lint_test.go); use the engine clock or extend the allowlist in review", walltimeWaiver)
					continue
				}
				waived[line] = true
			}
			if strings.Contains(c.Text, shardsyncWaiver) {
				syncWaived[line] = true
			}
		}
	}

	// Local names of the time and math/rand imports in this file.
	timeName, randName := "", ""
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch p {
		case "time":
			if timeName = "time"; name != "" {
				timeName = name
			}
		case "math/rand", "math/rand/v2":
			if randName = "rand"; name != "" {
				randName = name
			}
		}
	}

	inSim := strings.HasPrefix(filepath.ToSlash(path), "internal/sim/")
	noMaps := inSim || strings.HasPrefix(filepath.ToSlash(path), "internal/compute/")

	// Concurrency in the sim core needs an explicit audited waiver.
	syncForbidden := func(pos token.Pos, what string) {
		if !inSim || syncWaived[fset.Position(pos).Line] {
			return
		}
		report(pos, "%s in internal/sim; model code is single-threaded per shard — audited executor lines carry //%s", what, shardsyncWaiver)
	}
	if inSim {
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "sync" || p == "sync/atomic" {
				syncForbidden(imp.Pos(), "import of "+p)
			}
		}
	}

	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			syncForbidden(n.Pos(), "go statement")
		case *ast.ChanType:
			syncForbidden(n.Pos(), "channel type")
		case *ast.SendStmt:
			syncForbidden(n.Pos(), "channel send")
		case *ast.SelectStmt:
			syncForbidden(n.Pos(), "select statement")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				syncForbidden(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && id.Obj == nil {
				syncForbidden(n.Pos(), "channel close")
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Obj != nil { // Obj != nil: a local var shadows the package name
				return true
			}
			switch {
			case timeName != "" && pkg.Name == timeName && sel.Sel.Name == "Now":
				if !waived[fset.Position(n.Pos()).Line] {
					report(n.Pos(), "time.Now() in simulated logic; use the engine clock, or waive with //%s", walltimeWaiver)
				}
			case randName != "" && pkg.Name == randName && globalRandFuncs[sel.Sel.Name]:
				report(n.Pos(), "global math/rand.%s; draw from an explicitly seeded *rand.Rand (sim.Engine.Rand)", sel.Sel.Name)
			}
		case *ast.MapType:
			if noMaps {
				report(n.Pos(), "map type in %s; the simulation core and compute scheduler must not depend on map iteration order", filepath.Dir(filepath.ToSlash(path)))
			}
		}
		return true
	})
	return out
}

// TestDeterminismLintForbidsMaps: a map type anywhere in internal/sim or
// internal/compute fails the lint; the same source elsewhere passes.
func TestDeterminismLintForbidsMaps(t *testing.T) {
	const src = "package p\n\ntype F struct{ jobs map[int]*int }\n"
	for path, want := range map[string]int{
		"internal/compute/compute.go": 1,
		"internal/sim/engine.go":      1,
		"internal/migration/x.go":     0,
	} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if got := lintFile(fset, path, file); len(got) != want {
			t.Errorf("%s: %d violations %q, want %d", path, len(got), got, want)
		}
	}
}
