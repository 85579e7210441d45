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
//   - a bare conversion of a float to time.Duration (sim.Duration) or
//     sim.Time. Past the clock's range it wraps silently, which once made
//     an overlong transfer or computation instant; every such conversion
//     goes through sim.FloatDuration, which saturates and rejects NaN
//     and ±Inf, and only that helper converts bare. The rule needs types
//     (an operand's type, and what a conversion's target resolves to),
//     so the lint type-checks internal/ with go/types, the standard
//     library from source.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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

// modulePath is this module's import path prefix (go.mod).
const modulePath = "dyrs"

// floatDurationHelper is the one function allowed a bare float→clock
// conversion.
const floatDurationHelper = "FloatDuration"

func TestDeterminismLint(t *testing.T) {
	fset := token.NewFileSet()
	var paths []string
	var files []*ast.File
	pkgFiles := map[string][]*ast.File{} // import path → files
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		paths, files = append(paths, path), append(files, file)
		// Type-check the default build, without tag-gated variants.
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		pkg := modulePath + "/" + filepath.ToSlash(filepath.Dir(path))
		pkgFiles[pkg] = append(pkgFiles[pkg], file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := typeCheck(fset, pkgFiles)
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range paths {
		for _, v := range lintFile(fset, path, files[i], info) {
			t.Error(v)
		}
	}
}

// typeCheck type-checks each package in pkgFiles, the module's own
// imports from pkgFiles and the standard library from source, and
// returns the types of their expressions.
func typeCheck(fset *token.FileSet, pkgFiles map[string][]*ast.File) (*types.Info, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		if pkgFiles[path] == nil {
			return std.Import(path)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, pkgFiles[path], info)
		pkgs[path] = p
		return p, err
	}
	for path := range pkgFiles {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	return info, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// bareFloatClockConversion reports whether call converts a non-constant
// float to time.Duration (sim.Duration is an alias of it) or sim.Time.
// The compiler checks a constant operand.
func bareFloatClockConversion(info *types.Info, call *ast.CallExpr) bool {
	fun := info.Types[call.Fun]
	if !fun.IsType() || len(call.Args) != 1 {
		return false
	}
	if to := types.TypeString(fun.Type, nil); to != "time.Duration" && to != modulePath+"/internal/sim.Time" {
		return false
	}
	arg := info.Types[call.Args[0]]
	basic, ok := arg.Type.Underlying().(*types.Basic)
	return ok && arg.Value == nil && basic.Info()&types.IsFloat != 0
}

// lintFile reports the file's violations. With info nil it skips the
// rules that need types.
func lintFile(fset *token.FileSet, path string, file *ast.File, info *types.Info) []string {
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
		if fd, ok := n.(*ast.FuncDecl); ok && inSim && fd.Name.Name == floatDurationHelper {
			return false // the one place a bare float→clock conversion belongs
		}
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
			if info != nil && bareFloatClockConversion(info, n) {
				report(n.Pos(), "bare float conversion to a clock type wraps past the clock's range; use sim.%s", floatDurationHelper)
			}
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
		if got := lintFile(fset, path, file, nil); len(got) != want {
			t.Errorf("%s: %d violations %q, want %d", path, len(got), got, want)
		}
	}
}

// TestDeterminismLintForbidsBareFloatConversions: a float converted to
// time.Duration or sim.Time outside sim.FloatDuration fails the lint;
// integer and constant operands, and the helper's own body, pass.
func TestDeterminismLintForbidsBareFloatConversions(t *testing.T) {
	const src = `package sim

import "time"

type Time int64

func FloatDuration(ns float64) time.Duration { return time.Duration(ns) }

var x, n = 1.5, 2
var bad = []any{time.Duration(x), Time(x * 2)}
var good = []any{time.Duration(n), Time(n), time.Duration(1.5e9), Time(FloatDuration(x))}
`
	const path = "internal/sim/x.go"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typeCheck(fset, map[string][]*ast.File{modulePath + "/internal/sim": {file}})
	if err != nil {
		t.Fatal(err)
	}
	if got := lintFile(fset, path, file, info); len(got) != 2 || !strings.HasPrefix(got[0], path+":10:") || !strings.HasPrefix(got[1], path+":10:") {
		t.Errorf("violations %q, want two on line 10", got)
	}
}
