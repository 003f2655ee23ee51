package notebookos_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestConfigOptionsHaveSetters keeps the simulator's public config honest:
// every exported field of sim.Config and sim.FedClusterSpec must be set
// somewhere — as a composite-literal key or an assignment target — by code
// that uses the package: any file importing notebookos/internal/sim
// (commands, experiments, examples, the bench/ module, tests) or
// internal/sim's own tests. A field nothing sets is an
// option with one value in use; make it a constant instead. The package's
// non-test files only plumb the fields, and the live half's platform and
// control configs reuse some of the names, so neither is scanned. The match
// is by field name within those files, not by type.
//
// The same walk keeps the config the only one: the three names
// internal/sim/compat.go keeps for the frozen bench/ module appear as
// identifiers in no other Go file outside bench/.
func TestConfigOptionsHaveSetters(t *testing.T) {
	const simPkg, simDir = "notebookos/internal/sim", "internal/sim"
	compat := map[string]bool{"FedConfig": true, "FedResult": true, "RunFederated": true}
	fset := token.NewFileSet()

	fields := map[string]token.Position{} // "Type.Field"
	set := map[string]bool{}              // names some user of the package sets
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if slash := filepath.ToSlash(path); slash != simDir+"/compat.go" && !strings.HasPrefix(slash, "bench/") {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && compat[id.Name] {
					t.Errorf("%s uses sim.%s, a name kept only for bench/: use Config, Result and Run", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
		inSim := filepath.ToSlash(filepath.Dir(path)) == simDir
		if inSim && !strings.HasSuffix(path, "_test.go") {
			collectStructFields(fset, file, fields, "Config", "FedClusterSpec")
			return nil
		}
		uses := inSim
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == simPkg {
				uses = true
			}
		}
		if uses {
			collectSetNames(file, set)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) < 20 {
		t.Fatalf("found only %d config fields in %s: the scan is looking in the wrong place", len(fields), simDir)
	}
	for key := range fields {
		if _, name, _ := strings.Cut(key, "."); !set[name] {
			t.Errorf("sim.%s is set by no command, experiment, example, benchmark or test: make it a constant", key)
		}
	}
	liveConfigsHaveSetters(t)
}

// liveConfigs are the live half's configs, by package directory.
var liveConfigs = map[string][]string{
	"internal/control":  {"Config"},
	"internal/kernel":   {"Config", "ReplicaConfig"},
	"internal/raft":     {"Config"},
	"internal/platform": {"Config"},
}

// liveConfigsHaveSetters holds the live half's configs to the same rule:
// every exported field is set by some file of the live packages or of a
// package that imports one (commands, examples, the gateway, tests). A
// config passes fields down to the next one (control's to kernel's,
// kernel's to the replica's and raft's), so a key whose value selects a
// field of the same name only forwards it and sets nothing, and neither
// does an assignment in a live package's non-test file, which fills in a
// default.
func liveConfigsHaveSetters(t *testing.T) {
	fset := token.NewFileSet()
	fields := map[string]token.Position{}
	set := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go")
		types, live := liveConfigs[dir]
		if live && !test {
			own := map[string]token.Position{}
			collectStructFields(fset, file, own, types...)
			for key, pos := range own {
				fields[filepath.Base(dir)+"."+key] = pos
			}
		}
		uses := live
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); liveConfigs[strings.TrimPrefix(p, "notebookos/")] != nil {
				uses = true
			}
		}
		if !uses {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				key, ok := n.Key.(*ast.Ident)
				if sel, fwd := n.Value.(*ast.SelectorExpr); ok && !(fwd && sel.Sel.Name == key.Name) {
					set[key.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && (test || !live) {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) < 20 {
		t.Fatalf("found only %d live config fields: the scan is looking in the wrong place", len(fields))
	}
	for key, pos := range fields {
		if name := key[strings.LastIndex(key, ".")+1:]; !set[name] {
			t.Errorf("%s: %s is set by no caller but a default or a forward: make it a constant", pos, key)
		}
	}
}

// collectStructFields records, as "Type.Field" at its position, the exported
// fields of the struct types declared in file under one of the given names.
func collectStructFields(fset *token.FileSet, file *ast.File, fields map[string]token.Position, types ...string) {
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || !slices.Contains(types, ts.Name.Name) {
			return true
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if name.IsExported() {
					fields[ts.Name.Name+"."+name.Name] = fset.Position(name.Pos())
				}
			}
		}
		return false
	})
}

// collectSetNames records every name file sets: keys of composite literals
// and selector targets of assignments.
func collectSetNames(file *ast.File, set map[string]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[key.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}
