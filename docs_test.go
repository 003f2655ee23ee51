package notebookos_bench

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocs is the docs gate: the Markdown and the package comments describe
// the tree as it is. Its subtests check that relative links resolve
// (links), that the Go names the docs cite are declared (names), and that a
// CHANGES.md entry stays short (changes).
func TestDocs(t *testing.T) {
	t.Run("links", testDocLinks)
	t.Run("names", testDocNames)
	t.Run("changes", testChangesEntries)
}

// linkRe matches inline Markdown links and images; the target group stops
// at the first ')' or whitespace, which covers every link this repo
// writes (no nested parentheses, no angle-bracketed targets).
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

// schemeRe detects absolute URLs (https://..., mailto:, etc.).
var schemeRe = regexp.MustCompile(`^[a-zA-Z][a-zA-Z0-9+.-]*:`)

// testDocLinks fails on a relative link, in any *.md outside a
// dot-directory, whose target does not exist. Absolute URLs (a scheme
// prefix), mailto: and pure in-page #fragments are skipped; any #fragment is
// stripped from the rest, which resolves against the linking file's
// directory.
func testDocLinks(t *testing.T) {
	checked := 0
	for _, file := range markdownFiles(t, ".") {
		buf, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(buf), -1) {
			target := m[1]
			if schemeRe.MatchString(target) || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			checked++
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, m[1], resolved)
			}
		}
	}
	if checked < 40 {
		t.Fatalf("found only %d relative links: the scan is looking in the wrong place", checked)
	}
}

// markdownFiles lists every *.md under root, skipping dot-directories.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".md") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// spanRe matches a Markdown code span; fenceRe a fenced block, whose
// command lines and profile listings are not citations.
var (
	spanRe  = regexp.MustCompile("`([^`]+)`")
	fenceRe = regexp.MustCompile("(?ms)^```.*?^```")
)

// goNameRe matches a Go-shaped span: Name, pkg.Name, Type.Member or
// pkg.Type.Member, optionally a pointer or a call. Go names are MixedCaps,
// so a snake_case span (a benchmark metric) does not match. A bare lowercase
// word does, and testDocNames skips it: in these docs that is a value (an
// experiment, a fault profile, an audit check) as often as an identifier.
var goNameRe = regexp.MustCompile(`^\*?([A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*){0,2})(?:\(\))?$`)

// goFileRe is a cited Go file: a slash path ending in .go, optionally with
// a line number.
var goFileRe = regexp.MustCompile(`^([A-Za-z0-9_./-]+\.go)(?::[0-9]+)?$`)

// testDocNames fails on a backticked Go name, in docs/*.md, README.md,
// examples/**/*.md or a doc.go comment, that no .go file of the repository
// declares, test files included (docs cite tests), and on a backticked .go
// path that no file of the repository, or of the standard library, ends
// with. A name resolves as a name any package declares, at package level or
// as a member (Name), a name package pkg declares (pkg.Name; a method counts, the docs' shorthand for
// pkg.Type.Method), a field or method of a type named Type in any package,
// promoted ones included (Type.Member), or both (pkg.Type.Member). A span
// naming a file of the tree (`go.mod`, `ROADMAP.md`) is a path, and a span
// qualified by a standard-library package the repository imports is
// skipped. History and plan files (CHANGES.md, ROADMAP.md and the like)
// name deleted and future code on purpose and are not read; nor is
// bench/README.md, whose metric names only look like Go.
func testDocNames(t *testing.T) {
	d := declaredNames(t)
	type source struct{ name, text string }
	var sources []source
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(append(docs, "README.md"), markdownFiles(t, "examples")...) {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{f, fenceRe.ReplaceAllStringFunc(string(buf), blankLines)})
	}
	fset := token.NewFileSet()
	for _, f := range d.files {
		if path.Base(f) != "doc.go" {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if file.Doc == nil {
			t.Errorf("%s has no package comment", f)
			continue
		}
		// Offset the comment so its line numbers are the file's.
		line := fset.Position(file.Doc.Pos()).Line
		sources = append(sources, source{f, strings.Repeat("\n", line-1) + file.Doc.Text()})
	}

	found := 0
	for _, src := range sources {
		for _, m := range spanRe.FindAllStringSubmatchIndex(src.text, -1) {
			span := src.text[m[2]:m[3]]
			line := 1 + strings.Count(src.text[:m[0]], "\n")
			switch {
			case goFileRe.MatchString(span):
				found++
				if !d.hasFile(goFileRe.FindStringSubmatch(span)[1]) {
					t.Errorf("%s:%d: `%s` names no .go file of the repository", src.name, line, span)
				}
			case goNameRe.MatchString(span) && !isFile(src.name, span):
				name := goNameRe.FindStringSubmatch(span)[1]
				if !strings.Contains(name, ".") && strings.ToLower(name) == name {
					continue // a bare lowercase word
				}
				found++
				if !d.resolves(name) {
					t.Errorf("%s:%d: `%s` resolves to no Go declaration of the repository", src.name, line, span)
				}
			}
		}
	}
	if found < 500 {
		t.Fatalf("found only %d Go references in %d files: the scan is looking in the wrong place", found, len(sources))
	}
}

// blankLines replaces a fenced block by as many empty lines, so the line
// numbers after it stay the file's.
func blankLines(s string) string { return strings.Repeat("\n", strings.Count(s, "\n")) }

// decls is every name the repository's Go files declare.
type decls struct {
	files      []string                   // slash paths of every .go file
	top        map[string]map[string]bool // package → its package-level names
	members    map[string]map[string]bool // "pkg.Type" → its fields and methods
	embeds     map[string][]string        // "pkg.Type" → the "pkg.Type"s it embeds
	types      map[string][]string        // Type → every "pkg.Type" of that name
	any        map[string]bool            // every declared name, package-level or member
	pkgMembers map[string]map[string]bool // package → the fields and methods of its types
	stdlib     map[string]bool            // names of the standard-library packages imported
}

// declaredNames parses every .go file of the repository, tests included,
// as TestExportedNamesHaveUsers does.
func declaredNames(t *testing.T) *decls {
	d := &decls{
		top: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, types: map[string][]string{},
		any: map[string]bool{}, pkgMembers: map[string]map[string]bool{}, stdlib: map[string]bool{},
	}
	fset := token.NewFileSet()
	walkGo(t, fset, true, func(_ string, file *ast.File) { d.add(file) })
	fset.Iterate(func(f *token.File) bool {
		d.files = append(d.files, filepath.ToSlash(f.Name()))
		return true
	})
	if len(d.files) < 150 {
		t.Fatalf("found only %d Go files: the scan is looking in the wrong place", len(d.files))
	}
	return d
}

// add records the declarations of one file.
func (d *decls) add(file *ast.File) {
	pkg := strings.TrimSuffix(file.Name.Name, "_test")
	imports := map[string]string{}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path.Base(p)
		if !strings.HasPrefix(p, module) && !strings.Contains(strings.Split(p, "/")[0], ".") {
			d.stdlib[name] = true
		}
	}
	if d.top[pkg] == nil {
		d.top[pkg], d.pkgMembers[pkg] = map[string]bool{}, map[string]bool{}
	}
	declare := func(name string) { d.top[pkg][name], d.any[name] = true, true }
	member := func(typ, name string) {
		key := pkg + "." + typ
		if d.members[key] == nil {
			d.members[key] = map[string]bool{}
		}
		d.members[key][name], d.pkgMembers[pkg][name], d.any[name] = true, true, true
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				declare(decl.Name.Name)
			} else if recv := receiverType(genericBase(decl.Recv.List[0].Type)); recv != "" {
				member(recv, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						declare(name.Name)
					}
				case *ast.TypeSpec:
					typ := spec.Name.Name
					declare(typ)
					key := pkg + "." + typ
					d.types[typ] = append(d.types[typ], key)
					var fields *ast.FieldList
					switch x := spec.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					}
					if fields == nil {
						continue
					}
					for _, f := range fields.List {
						for _, name := range f.Names {
							member(typ, name.Name)
						}
						if embedded, ok := embeddedType(f.Type, pkg, imports); len(f.Names) == 0 && ok {
							member(typ, embedded[strings.LastIndexByte(embedded, '.')+1:])
							d.embeds[key] = append(d.embeds[key], embedded)
						}
					}
				}
			}
		}
	}
}

// genericBase strips a generic receiver's type parameters: T[K] → T.
func genericBase(x ast.Expr) ast.Expr {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		return g.X
	case *ast.IndexListExpr:
		return g.X
	}
	return x
}

// embeddedType names an embedded field's type as "pkg.Type".
func embeddedType(x ast.Expr, pkg string, imports map[string]string) (string, bool) {
	switch e := genericBase(x).(type) {
	case *ast.Ident:
		return pkg + "." + e.Name, true
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return imports[id.Name] + "." + e.Sel.Name, true
		}
	}
	return "", false
}

// hasFile reports whether some .go file of the repository is p or ends in
// "/"+p, or p is a file of the standard library's source.
func (d *decls) hasFile(p string) bool {
	for _, f := range d.files {
		if f == p || strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	_, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(p)))
	return err == nil
}

// isFile reports whether span names a file or directory of the tree,
// relative to the root or to the directory of doc, the file citing it.
func isFile(doc, span string) bool {
	for _, dir := range []string{".", filepath.Dir(doc)} {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(span))); err == nil {
			return true
		}
	}
	return false
}

// resolves reports whether a dotted name of one to three parts names a
// declaration, or is qualified by a standard-library package.
func (d *decls) resolves(name string) bool {
	parts := strings.Split(name, ".")
	switch len(parts) {
	case 1:
		return d.any[name]
	case 2:
		for _, key := range d.types[parts[0]] {
			if d.hasMember(key, parts[1], 0) {
				return true
			}
		}
		return d.top[parts[0]][parts[1]] || d.pkgMembers[parts[0]][parts[1]] || d.stdlib[parts[0]]
	default:
		return d.hasMember(parts[0]+"."+parts[1], parts[2], 0) || d.stdlib[parts[0]]
	}
}

// hasMember reports whether type key has the field or method name, its own
// or promoted from what it embeds.
func (d *decls) hasMember(key, name string, depth int) bool {
	if d.members[key][name] {
		return true
	}
	if depth < 4 {
		for _, e := range d.embeds[key] {
			if d.hasMember(e, name, depth+1) {
				return true
			}
		}
	}
	return false
}

// testChangesEntries fails on a CHANGES.md entry longer than 2 KB: the long
// form goes in the commit message. An entry is a line that starts with
// "PR n" or "- PR n", and the lines after it up to the next. Entries numbered
// below firstLimited predate the limit and stay as written.
func testChangesEntries(t *testing.T) {
	const firstLimited, limit = 43, 2048
	buf, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, n, size := 0, 0, 0
	check := func() {
		if n >= firstLimited && size > limit {
			t.Errorf("CHANGES.md: entry %d is %d bytes, over %d: put the long form in the commit message", n, size, limit)
		}
	}
	for _, line := range strings.SplitAfter(string(buf), "\n") {
		if m := changesEntryRe.FindStringSubmatch(line); m != nil {
			check()
			n, _ = strconv.Atoi(m[1])
			size = 0
			entries++
		}
		size += len(strings.TrimSuffix(line, "\n"))
	}
	check()
	if entries < 35 {
		t.Fatalf("found only %d CHANGES.md entries: the scan is looking in the wrong place", entries)
	}
}

// changesEntryRe matches the first line of a CHANGES.md entry.
var changesEntryRe = regexp.MustCompile(`^(?:- )?PR ([0-9]+)\b`)
