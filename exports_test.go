package notebookos_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportsGuarded are the packages, of both the simulator half and the live
// platform, whose exported surface TestExportedNamesHaveUsers keeps to what
// some program uses.
var exportsGuarded = []string{
	"sim", "des", "trace", "metrics", "federation", "scheduler", "cluster",
	"resources", "gpu", "store", "workload", "experiments", "benchsnap", "randprefix",
	"raft", "kernel", "pynb", "jupyter", "container", "simclock", "control", "platform", "gateway",
}

// exportsAllowed are the exported names no non-test file references that
// stay anyway, each with its reason. A name here that gains a user, or is
// deleted, fails the test: the list only holds what it must.
var exportsAllowed = map[string]string{
	"federation.ScaleNone":           "the iota zero value of ScaleAction: a ScaleDecision that scales nothing has it without naming it",
	"randprefix.Source.Int63":        "rand.Source's method: math/rand's Rand calls it for every Int63, Float64 and ExpFloat64 draw",
	"sim.LegacySplit":                "the iota zero value of ShardCapacity: every config that leaves ShardCapacity unset has it without naming it",
	"simclock.NewVirtual":            "the live half's test clock: the container tests drive provisioning latency on it, and a live-vs-sim replayer (ROADMAP 5(b)) needs it",
	"simclock.Virtual.Advance":       "the live half's test clock: how a test moves a Virtual clock's time",
	"simclock.Virtual.PendingTimers": "the live half's test clock: how a test waits until a goroutine sleeps on a Virtual clock",
}

// TestExportedNamesHaveUsers fails on an exported func, const or var, or an
// exported method of an exported type, declared in a non-test file of a
// guarded package and referenced by no non-test file of the repository
// (commands, examples, the bench/ module, the package itself): an API only
// tests call is code kept for its tests. Delete such a name, or unexport it
// when its own package uses it. The scan parses; nothing is type-checked. A
// package-level name counts as used where a file that imports its package
// selects it, or where a file of the package itself names it. A method
// counts as used where any file selects that method name on something other
// than an imported package, so two methods of one name shield each other:
// the guard can miss a dead method, never flag a live one. A method only an
// interface of the standard library calls (fmt.Stringer, sort.Interface)
// goes in exportsAllowed with that reason.
func TestExportedNamesHaveUsers(t *testing.T) {
	const module = "notebookos/"
	guarded := map[string]bool{}
	for _, p := range exportsGuarded {
		guarded[module+"internal/"+p] = true
	}
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "pkg.Name" or "pkg.Type.Method"
	used := map[string]bool{}               // "importpath.Name" of package-level names
	methods := map[string]bool{}            // method names selected on a value

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := module + filepath.ToSlash(filepath.Dir(p))
		if guarded[own] {
			collectExports(fset, file, path.Base(own), declared)
		}
		collectUses(file, own, used, methods)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 300 {
		t.Fatalf("found only %d exported names in %d packages: the scan is looking in the wrong place", len(declared), len(exportsGuarded))
	}

	var unused []string
	for name := range declared {
		pkg, rest, _ := strings.Cut(name, ".")
		var live bool
		if _, method, ok := strings.Cut(rest, "."); ok {
			live = methods[method]
		} else {
			live = used[module+"internal/"+pkg+"."+rest]
		}
		_, allowed := exportsAllowed[name]
		switch {
		case !live && !allowed:
			unused = append(unused, name)
		case live && allowed:
			t.Errorf("%s is allowed unreferenced but has a user: drop it from exportsAllowed", name)
		}
	}
	for name := range exportsAllowed {
		if _, ok := declared[name]; !ok {
			t.Errorf("exportsAllowed names %s, which is not declared: drop the entry", name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: %s is referenced by no non-test file; delete it, or unexport it if its package uses it", declared[name], name)
	}
}

// collectExports records the exported funcs, consts and vars of one file of
// package pkg, and the exported methods of its exported types.
func collectExports(fset *token.FileSet, file *ast.File, pkg string, declared map[string]token.Position) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				declared[pkg+"."+d.Name.Name] = fset.Position(d.Pos())
			} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				declared[pkg+"."+recv+"."+d.Name.Name] = fset.Position(d.Pos())
			}
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() {
						declared[pkg+"."+name.Name] = fset.Position(name.Pos())
					}
				}
			}
		}
	}
}

// receiverType names a method's receiver type: T for T and *T.
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectUses records what one file of package own references: pkg.Name
// selections through its imports and its own package's names, and the
// method names it selects on values. Declaring a name is not using it.
func collectUses(file *ast.File, own string, used, methods map[string]bool) {
	imports := map[string]string{}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	declaring := map[*ast.Ident]bool{}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declaring[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						declaring[name] = true
					}
				}
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					used[p+"."+n.Sel.Name] = true
					return false
				}
			}
			methods[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declaring[n] {
				used[own+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}
