package abase

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseNonTest parses every non-test Go file of dir.
func parseNonTest(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestPlaneBoundaries keeps the control plane off the data path by
// construction: the data plane cannot name the control or proxy plane
// at all, and the proxy plane reaches the MetaServer through three
// methods only — it registers, refetches an invalidated routing view
// (which carries the node handles), and reports a suspect node after a
// failure. Everything else a request needs was pushed to where it runs.
func TestPlaneBoundaries(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseNonTest(t, fset, "internal/datanode") {
		for _, imp := range f.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "abase/internal/metaserver", "abase/internal/proxy":
				t.Errorf("%s: the data plane imports %s", fset.Position(imp.Pos()), path)
			}
		}
	}

	// The MetaServer handle lives in Config.Meta, so every use of it is a
	// selector ending in .Meta: either the receiver of a method call,
	// which must be one of the three, or bare. The bare ones are the
	// field's declared type and New's nil check — one more would be the
	// handle escaping into a name this test cannot follow.
	allowed := map[string]bool{"RoutingView": true, "ReportNodeSuspect": true, "RegisterProxy": true}
	bare := 0
	for _, f := range parseNonTest(t, fset, "internal/proxy") {
		receivers := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Meta" {
				receivers[recv] = true // visited before recv itself
				if !allowed[sel.Sel.Name] {
					t.Errorf("%s: the proxy plane calls Meta.%s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			if sel.Sel.Name == "Meta" && !receivers[sel] {
				bare++
				if filepath.Base(fset.Position(sel.Pos()).Filename) != "proxy.go" {
					t.Errorf("%s: the MetaServer handle is named outside proxy.go", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	if bare != 2 {
		t.Errorf("internal/proxy names the MetaServer handle %d times outside a method call, want 2 (Config.Meta's type, New's nil check)", bare)
	}
}
