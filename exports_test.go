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
	"resources", "gpu", "store", "workload", "experiments", "randprefix", "detmath",
	"raft", "kernel", "pynb", "jupyter", "container", "simclock", "control", "platform", "gateway",
}

// exportsAllowed are the exported names no non-test file references that
// stay anyway, each with its reason. A name here that gains a user, or is
// deleted, fails the test: the list only holds what it must.
var exportsAllowed = map[string]string{
	"federation.ScaleNone":           "the iota zero value of ScaleAction: a ScaleDecision that scales nothing has it without naming it",
	"randprefix.Source.Int63":        "rand.Source's method: math/rand's Rand calls it for every Int63, Float64 and ExpFloat64 draw",
	"sim.LegacySplit":                "the iota zero value of ShardCapacity: every config that leaves ShardCapacity unset has it without naming it",
	"simclock.NewVirtual":            "the live half's test clock: the container tests drive provisioning latency on it",
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
	guarded := map[string]bool{}
	for _, p := range exportsGuarded {
		guarded[module+"internal/"+p] = true
	}
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "pkg.Name" or "pkg.Type.Method"
	used := map[string]bool{}               // "importpath.Name" of package-level names
	methods := map[string]bool{}            // method names selected on a value

	walkGo(t, fset, false, func(own string, file *ast.File) {
		if guarded[own] {
			collectExports(fset, file, path.Base(own), declared)
		}
		collectUses(file, own, used, methods)
	})
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

// resultFieldsAllowed are the exported fields of sim.Result and
// sim.FedClusterResult that no non-test file outside internal/sim reads and
// that stay anyway, each with its reason. An entry whose field gains a
// reader, or is deleted, fails the test.
var resultFieldsAllowed = map[string]string{
	"Result.RecoveryTime": "the only record of the failover election draw (faults.go), documented in docs/FAULTS.md: " +
		"without it that draw would feed nothing but the fault RNG's order, and the fault tests check exact restart charges through it",
}

// TestResultFieldsHaveReaders fails on an exported field of sim.Result or
// sim.FedClusterResult that no non-test file outside internal/sim selects.
// Commands, experiments, examples and the bench/ module read
// results; internal/sim only records them, so a field only tests read is
// recording kept for its tests: delete it with its recording. As
// TestExportedNamesHaveUsers does for methods, the scan parses and matches a
// selection by field name, whatever it is selected on: it can miss a dead
// field, never flag a live one.
func TestResultFieldsHaveReaders(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]token.Position{} // "Type.Field"
	read := map[string]bool{}             // names selected on a value outside internal/sim
	walkGo(t, fset, false, func(own string, file *ast.File) {
		if own == module+"internal/sim" {
			collectStructFields(fset, file, fields, "Result", "FedClusterResult")
			return
		}
		collectUses(file, own, map[string]bool{}, read)
	})
	if len(fields) < 40 {
		t.Fatalf("found only %d result fields: the scan is looking in the wrong place", len(fields))
	}
	var unread []string
	for key := range fields {
		_, name, _ := strings.Cut(key, ".")
		_, allowed := resultFieldsAllowed[key]
		switch {
		case !read[name] && !allowed:
			unread = append(unread, key)
		case read[name] && allowed:
			t.Errorf("sim.%s is allowed unread but has a reader: drop it from resultFieldsAllowed", key)
		}
	}
	for key := range resultFieldsAllowed {
		if _, ok := fields[key]; !ok {
			t.Errorf("resultFieldsAllowed names sim.%s, which is not declared: drop the entry", key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("%s: sim.%s is read by no non-test file outside internal/sim; delete it with its recording", fields[key], key)
	}
}

// module prefixes every import path of the repository.
const module = "notebookos/"

// walkGo parses every Go file of the repository, the bench/ module included
// and testdata excluded, test files only if tests is set, and hands it to fn
// with the import path of its directory.
func walkGo(t *testing.T, fset *token.FileSet, tests bool, fn func(own string, file *ast.File)) {
	t.Helper()
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
		if !strings.HasSuffix(p, ".go") || !tests && strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(module+filepath.ToSlash(filepath.Dir(p)), file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
