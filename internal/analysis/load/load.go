// Package load type-checks Go packages for the abasecheck analyzers
// without depending on golang.org/x/tools. It resolves packages and
// their compiled export data through `go list -export -json -deps`
// (offline: the go command serves export data from the build cache)
// and imports dependencies with the standard library's gc export-data
// importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Dir is the package directory.
	Dir string
	// GoFiles are the parsed file names (absolute).
	GoFiles []string
	// Fset maps positions for Syntax.
	Fset *token.FileSet
	// Syntax holds the parsed files, with comments.
	Syntax []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records type information for Syntax.
	TypesInfo *types.Info
	// IllTyped reports that type checking failed; Errors holds why.
	IllTyped bool
	// Errors holds parse and type errors.
	Errors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Packages loads and type-checks the packages matching the go list
// patterns, resolved relative to dir. Dependencies are imported from
// export data; only the matched packages themselves are parsed.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	return list(dir, nil, patterns)
}

// PackagesWithTests is Packages over what the matched packages' tests
// compile: a package with in-package tests is loaded with its _test.go
// files, and its external test package is loaded beside it.
func PackagesWithTests(dir string, patterns ...string) ([]*Package, error) {
	return list(dir, []string{"-test"}, patterns)
}

func list(dir string, flags, patterns []string) ([]*Package, error) {
	args := append(append([]string{"list", "-e", "-export", "-json", "-deps"}, flags...), "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	byPath := map[string]*listPkg{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		byPath[lp.ImportPath] = lp
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	pkgs := make([]*Package, 0, len(targets))
	for _, lp := range targets {
		if lp.ImportPath == "unsafe" || len(lp.GoFiles) == 0 || strings.HasSuffix(lp.ImportPath, ".test") {
			continue // .test: a generated test main
		}
		if byPath[lp.ImportPath+" ["+lp.ImportPath+".test]"] != nil {
			continue // its test variant holds the same files and more
		}
		pkg := check(lp, exportLookup(byPath, lp))
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// Files type-checks one synthetic package assembled from the given
// files (the analysistest loader). Imports must resolve within the
// build cache — in practice, standard library packages plus anything
// `go list` can name.
func Files(pkgPath string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	pkg := &Package{PkgPath: pkgPath, Fset: fset, GoFiles: filenames}
	var imports []string
	seen := map[string]bool{}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Syntax = append(pkg.Syntax, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	byPath := map[string]*listPkg{}
	if len(imports) > 0 {
		args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, imports...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list (test imports): %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			lp := new(listPkg)
			if err := dec.Decode(lp); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			byPath[lp.ImportPath] = lp
		}
	}
	typecheck(pkg, exportLookup(byPath, nil))
	return pkg, nil
}

// check parses and type-checks one listed package.
func check(lp *listPkg, imp types.Importer) *Package {
	fset := token.NewFileSet()
	pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Fset: fset}
	if lp.Error != nil {
		pkg.IllTyped = true
		pkg.Errors = append(pkg.Errors, fmt.Errorf("%s", lp.Error.Err))
	}
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		pkg.GoFiles = append(pkg.GoFiles, path)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			pkg.IllTyped = true
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Syntax = append(pkg.Syntax, f)
	}
	typecheck(pkg, imp)
	return pkg
}

// typecheck runs go/types over pkg.Syntax with the given importer.
func typecheck(pkg *Package, imp types.Importer) {
	pkg.TypesInfo = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			pkg.IllTyped = true
			pkg.Errors = append(pkg.Errors, err)
		},
	}
	tpkg, _ := conf.Check(pkg.PkgPath, pkg.Fset, pkg.Syntax, pkg.TypesInfo)
	pkg.Types = tpkg
}

// exportLookup returns an importer that resolves import paths (via
// lp's vendor ImportMap when present) to the export data files that
// `go list -export` reported.
func exportLookup(byPath map[string]*listPkg, lp *listPkg) types.Importer {
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		dep, ok := byPath[path]
		if !ok || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(dep.Export)
	})
	return &mappingImporter{gc: gc, lp: lp}
}

// mappingImporter applies go list's ImportMap before delegating to the
// gc export-data importer, and short-circuits package unsafe.
type mappingImporter struct {
	gc types.Importer
	lp *listPkg
}

// Import implements types.Importer.
func (m *mappingImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if m.lp != nil {
		if mapped, ok := m.lp.ImportMap[path]; ok {
			path = mapped
		}
	}
	return m.gc.Import(path)
}
