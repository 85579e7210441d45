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
//     (an operand's type, and what a conversion's target resolves to).
//   - an exported function or method that only tests call. internal/
//     exports exactly what programs use: the root package, cmd/,
//     examples/, benchmark/ and internal/ itself, all non-test code. A
//     method passes if its receiver satisfies an interface that has it,
//     since a call through the interface names the interface's method.
//     A function another package's tests need as an oracle stays
//     exported with a //lint:testapi <reason> waiver in its doc
//     comment; a waiver without a reason, or on a function that
//     programs call, fails. Same-package tests read unexported state
//     instead of going through an accessor.
//   - an exported name of the root package that no program names. The
//     root package is the library facade: each func, var, const and
//     type it declares must be referenced by a non-test file of another
//     package (cmd/, examples/, benchmark/), or carry the same
//     //lint:testapi <reason> waiver, in its own or its group's doc
//     comment.
//
// The last three rules need types, so the lint type-checks the default
// build of every non-test file in the module, benchmark/ included, with
// go/types, and the standard library from source.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// modulePath is this module's import path prefix (go.mod).
const modulePath = "dyrs"

// floatDurationHelper is the one function allowed a bare float→clock
// conversion.
const floatDurationHelper = "FloatDuration"

// testapiWaiver, in an exported internal/ function's or root-package
// declaration's doc comment and followed by a reason, keeps a name that
// only tests reference exported: another package's tests need it.
const testapiWaiver = "lint:testapi"

func TestDeterminismLint(t *testing.T) {
	violations, err := lintTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// srcFile is one parsed non-test Go file of the tree being linted.
type srcFile struct {
	path  string // slash-separated, relative to the tree's root
	file  *ast.File
	built bool // part of the default build (no tag-gated variant)
}

// lintTree lints the module rooted at root. Every internal/ non-test
// file gets lintFile's rules; then the default build's non-test files of
// the whole tree (root package, cmd/, examples/, internal/, benchmark/)
// are type-checked together and testOnlyExports judges the exports of
// internal/ and of the root package against their references.
func lintTree(root string) ([]string, error) {
	fset := token.NewFileSet()
	var srcs []srcFile
	pkgFiles := map[string][]*ast.File{} // import path → default-build files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			return err
		}
		built, err := build.Default.MatchFile(filepath.Dir(path), d.Name())
		if err != nil {
			return err
		}
		srcs = append(srcs, srcFile{rel, file, built})
		if built {
			pkg := modulePath
			if dir := filepath.Dir(filepath.FromSlash(rel)); dir != "." {
				pkg += "/" + filepath.ToSlash(dir)
			}
			pkgFiles[pkg] = append(pkgFiles[pkg], file)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	info, pkgs, err := typeCheck(fset, pkgFiles)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, s := range srcs {
		if strings.HasPrefix(s.path, "internal/") {
			out = append(out, lintFile(fset, s.path, s.file, info)...)
		}
	}
	return append(out, testOnlyExports(fset, srcs, info, pkgs)...), nil
}

// typeCheck type-checks each package in pkgFiles, the module's own
// imports from pkgFiles and the standard library from source. It
// returns the types, definitions and uses of the module's expressions
// and identifiers, and the module's packages.
func typeCheck(fset *token.FileSet, pkgFiles map[string][]*ast.File) (*types.Info, []*types.Package, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
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
	var out []*types.Package
	for path := range pkgFiles {
		p, err := imp(path)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, p)
	}
	return info, out, nil
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

// testOnlyExports reports each exported function and method declared in
// internal/'s default build that no type-checked file references outside
// its own body, and each exported name declared in the root package's
// default build that no type-checked file of another package references.
// Only non-test files are type-checked, so a reference from a test does
// not count. A method passes if its receiver satisfies an interface that
// has the method, since a call through the interface names the
// interface's method, not this one. A declaration passes if its doc
// comment (for a root name, its own or its group's) carries a
// //lint:testapi waiver with a reason; a waiver with no reason, on a
// referenced declaration, or anywhere but such a doc comment fails.
func testOnlyExports(fset *token.FileSet, srcs []srcFile, info *types.Info, pkgs []*types.Package) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	var order []*types.Func
	var roots []rootDecl
	docs := map[*ast.CommentGroup]bool{}
	for _, s := range srcs {
		switch {
		case !s.built:
		case strings.HasPrefix(s.path, "internal/"):
			for _, d := range s.file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := info.Defs[fd.Name].(*types.Func)
					decls[fn], order = fd, append(order, fn)
					docs[fd.Doc] = true
				}
			}
		case !strings.Contains(s.path, "/"):
			for _, r := range rootDecls(s.file) {
				roots = append(roots, r)
				docs[r.doc] = true
			}
		}
	}
	for _, s := range srcs {
		if !strings.HasPrefix(s.path, "internal/") && strings.Contains(s.path, "/") {
			continue
		}
		for _, cg := range s.file.Comments {
			if _, ok := testapiReason(cg); ok && !docs[cg] {
				report(cg.Pos(), "//%s waiver outside an exported declaration's doc comment", testapiWaiver)
			}
		}
	}
	used := map[*types.Func]bool{}
	named := map[types.Object]bool{} // named from outside the root package
	for id, obj := range info.Uses {
		if strings.Contains(fset.Position(id.Pos()).Filename, "/") {
			named[obj] = true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			continue // recursion is not a caller
		}
		used[fn] = true
	}
	ifaces := interfaceMethods(pkgs, info)
	for _, fn := range order {
		fd := decls[fn]
		reason, waived := testapiReason(fd.Doc)
		switch {
		case waived && reason == "":
			report(fd.Pos(), "//%s waiver on %s gives no reason", testapiWaiver, fd.Name.Name)
		case waived && used[fn]:
			report(fd.Pos(), "//%s waiver on %s, which non-test code calls; drop the waiver", testapiWaiver, fd.Name.Name)
		case !waived && !used[fn] && !satisfiesInterface(fn, ifaces):
			report(fd.Pos(), "exported %s has no non-test caller; delete it, read unexported state from an in-package test, or waive with //%s <reason>", fd.Name.Name, testapiWaiver)
		}
	}
	for _, r := range roots {
		reason, waived := testapiReason(r.doc)
		used := named[info.Defs[r.name]]
		switch {
		case waived && reason == "":
			report(r.name.Pos(), "//%s waiver on %s gives no reason", testapiWaiver, r.name.Name)
		case waived && used:
			report(r.name.Pos(), "//%s waiver on %s, which another package's non-test code names; drop the waiver", testapiWaiver, r.name.Name)
		case !waived && !used:
			report(r.name.Pos(), "root package exports %s, which no other package's non-test code names; delete it, or waive with //%s <reason>", r.name.Name, testapiWaiver)
		}
	}
	return out
}

// rootDecl is one exported name a root-package file declares, with the
// doc comment its waiver belongs in.
type rootDecl struct {
	name *ast.Ident
	doc  *ast.CommentGroup
}

// rootDecls lists file's exported package-level funcs, vars, consts and
// types. A name in a group without a doc of its own takes the group's.
func rootDecls(file *ast.File) []rootDecl {
	var out []rootDecl
	add := func(id *ast.Ident, doc *ast.CommentGroup) {
		if id.IsExported() {
			out = append(out, rootDecl{id, doc})
		}
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var names []*ast.Ident // none for an import
				var doc *ast.CommentGroup
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					names, doc = spec.Names, spec.Doc
				case *ast.TypeSpec:
					names, doc = []*ast.Ident{spec.Name}, spec.Doc
				}
				if doc == nil {
					doc = d.Doc
				}
				for _, id := range names {
					add(id, doc)
				}
			}
		}
	}
	return out
}

// testapiReason returns the reason of the //lint:testapi waiver in cg, if
// it has one.
func testapiReason(cg *ast.CommentGroup) (reason string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if rest, ok := strings.CutPrefix(c.Text, "//"+testapiWaiver); ok && (rest == "" || rest[0] == ' ') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// interfaceMethods indexes by method name every interface the packages
// can reach: error, those declared at package level in the packages and
// everything they import, and those the packages' expressions have.
func interfaceMethods(pkgs []*types.Package, info *types.Info) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether method fn's receiver type, or a
// pointer to it, implements an interface that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
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
	info, _, err := typeCheck(fset, map[string][]*ast.File{modulePath + "/internal/sim": {file}})
	if err != nil {
		t.Fatal(err)
	}
	if got := lintFile(fset, path, file, info); len(got) != 2 || !strings.HasPrefix(got[0], path+":10:") || !strings.HasPrefix(got[1], path+":10:") {
		t.Errorf("violations %q, want two on line 10", got)
	}
}

// TestDeterminismLintTestOnlyExports: in a synthetic module, an exported
// internal/ function or method that nothing calls fails the lint, as
// does one called only from a test or from its own body. One called from
// cmd/ or benchmark/, a method that satisfies an interface, and a
// function waived with a reason pass. A waiver fails when it gives no
// reason, sits on a function that programs call, or sits anywhere but a
// function's doc comment. In the root package, a func, var, const and
// type alias that only a root test or root code names fail, and pass
// once examples/ or cmd/ name them; a waived name passes unless the
// waiver gives no reason or a program names it.
func TestDeterminismLintTestOnlyExports(t *testing.T) {
	root := t.TempDir()
	write := func(files map[string]string) {
		for path, src := range files {
			path = filepath.Join(root, path)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(want []string) {
		t.Helper()
		got, err := lintTree(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("violations:\n%s\nwant %d", strings.Join(got, "\n"), len(want))
		}
		for _, w := range want {
			found := false
			for _, g := range got {
				found = found || strings.HasPrefix(g, w)
			}
			if !found {
				t.Errorf("missing violation %q in:\n%s", w, strings.Join(got, "\n"))
			}
		}
	}
	write(map[string]string{
		"internal/p/p.go": `package p

type Visitor interface{ Visit() }

type T struct{}

func (T) Visit()        {}
func (T) Step()         {}
func (T) Error() string { return "" }
func (T) Unused()       {}

func Walk(w interface{ Step() }) { w.Step() }

func Unused()       {}
func CalledByTest() {}
func FromCmd()      {}
func FromBench()    {}

func Recursive(n int) {
	if n > 0 {
		Recursive(n - 1)
	}
}

//lint:testapi
func EmptyWaiver() {}

//lint:testapi an oracle for other packages' tests
func Waived() {}

//lint:testapi stale
func WaivedButCalled() {}

//lint:testapi misplaced
var V = 1
`,
		"internal/p/p_test.go": "package p\n\nfunc use() { CalledByTest() }\n",
		"cmd/c/main.go":        "package main\n\nimport \"dyrs/internal/p\"\n\nfunc main() { p.FromCmd(); p.WaivedButCalled(); p.Walk(p.T{}) }\n",
		"benchmark/main.go":    "package main\n\nimport \"dyrs/internal/p\"\n\nfunc main() { p.FromBench() }\n",
		"root.go": `package dyrs

import "dyrs/internal/p"

func Func() {}

var Var = 1

const Const = 2

type Alias = p.T

func SelfNamed() {}

var _ = SelfNamed

// A group's doc comment holds its names' waiver.
//
//lint:testapi an oracle for the root package's tests
const (
	WaivedA = 3
	WaivedB = 4
)

//lint:testapi
var EmptyWaiver = 5

//lint:testapi stale
func WaivedButNamed() {}
`,
		"root_test.go":       "package dyrs\n\nvar _ = []any{Func, Var, Const, Alias{}, WaivedA, WaivedB, EmptyWaiver}\n",
		"examples/e/main.go": "package main\n\nimport \"dyrs\"\n\nfunc main() { dyrs.WaivedButNamed() }\n",
	})
	internal := []string{
		"internal/p/p.go:10: exported Unused has no non-test caller",
		"internal/p/p.go:14: exported Unused has no non-test caller",
		"internal/p/p.go:15: exported CalledByTest has no non-test caller",
		"internal/p/p.go:19: exported Recursive has no non-test caller",
		"internal/p/p.go:26: //lint:testapi waiver on EmptyWaiver gives no reason",
		"internal/p/p.go:32: //lint:testapi waiver on WaivedButCalled, which non-test code calls",
		"internal/p/p.go:34: //lint:testapi waiver outside an exported declaration's doc comment",
		"root.go:13: root package exports SelfNamed, which no other package's non-test code names",
		"root.go:26: //lint:testapi waiver on EmptyWaiver gives no reason",
		"root.go:29: //lint:testapi waiver on WaivedButNamed, which another package's non-test code names",
	}
	check(append([]string{
		"root.go:5: root package exports Func, which no other package's non-test code names",
		"root.go:7: root package exports Var, which no other package's non-test code names",
		"root.go:9: root package exports Const, which no other package's non-test code names",
		"root.go:11: root package exports Alias, which no other package's non-test code names",
	}, internal...))

	write(map[string]string{
		"examples/f/main.go": "package main\n\nimport \"dyrs\"\n\nfunc main() { dyrs.Func(); _ = dyrs.Var }\n",
		"cmd/r/main.go":      "package main\n\nimport \"dyrs\"\n\nvar _ dyrs.Alias = dyrs.Alias{}\n\nfunc main() { _ = dyrs.Const }\n",
	})
	check(internal)
}
