package notebookos_bench

import (
	"go/build"
	"strings"
	"testing"
)

const modulePrefix = "notebookos/"

// importClosure returns every notebookos/ package the non-test files of
// roots import, transitively, mapped to the package that first imported it
// (roots map to ""). Directories are parsed, nothing is built or executed.
func importClosure(t *testing.T, roots ...string) map[string]string {
	t.Helper()
	via := map[string]string{}
	queue := []string{}
	add := func(path, from string) {
		if _, seen := via[path]; !seen && strings.HasPrefix(path, modulePrefix) {
			via[path] = from
			queue = append(queue, path)
		}
	}
	for _, r := range roots {
		add(r, "")
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(strings.TrimPrefix(path, modulePrefix), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			add(imp, path)
		}
	}
	return via
}

// chain renders how the closure reached path, root first.
func chain(via map[string]string, path string) string {
	var hops []string
	for p := path; p != ""; p = via[p] {
		hops = append([]string{strings.TrimPrefix(p, modulePrefix)}, hops...)
	}
	return strings.Join(hops, " -> ")
}

// TestSimulatorLinkGraph pins the one-way link between the two halves
// (docs/ARCHITECTURE.md "Link graph"): nothing the simulator half builds —
// its packages, its commands, the bench/ module — imports, directly or
// through another package, the live platform's kernels, consensus,
// interpreter, clock or control plane. The converse keeps the deny-list
// honest: the live platform must still link every name on it, so a rename
// cannot make the check vacuous.
func TestSimulatorLinkGraph(t *testing.T) {
	liveCore := []string{"raft", "kernel", "pynb", "jupyter", "container", "simclock", "control"}
	denied := append([]string{"platform", "gateway"}, liveCore...)

	simHalf := importClosure(t,
		"notebookos/internal/sim", "notebookos/internal/experiments",
		"notebookos/cmd/nbos-sim", "notebookos/cmd/nbos-trace",
		"notebookos/bench", // the nested module: its directory parses like any other
	)
	for _, name := range denied {
		path := modulePrefix + "internal/" + name
		if _, linked := simHalf[path]; linked {
			t.Errorf("the simulator half links the live platform: %s", chain(simHalf, path))
		}
	}

	liveHalf := importClosure(t, "notebookos/internal/platform")
	for _, name := range liveCore {
		if _, ok := liveHalf[modulePrefix+"internal/"+name]; !ok {
			t.Errorf("internal/platform no longer links internal/%s: the deny-list above names a package that is gone", name)
		}
	}
}
