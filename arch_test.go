package abase

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"abase/internal/analysis/load"
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

// TestNodeOpIsOneRun keeps "one request is one admission, one RU charge
// and one WFQ task" true by construction: a client-facing DataNode
// operation — an exported *Node method that takes the caller's context —
// never calls another one. A command built from two of them (the old
// HSET was a Get then a Put) is two pipeline runs with a window between
// them; it belongs in one op's I/O stage instead.
func TestNodeOpIsOneRun(t *testing.T) {
	fset := token.NewFileSet()
	type method struct {
		decl *ast.FuncDecl
		recv string
	}
	ops := map[string]method{}
	for _, f := range parseNonTest(t, fset, "internal/datanode") {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || len(fn.Type.Params.List) == 0 {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			ctx, ok := fn.Type.Params.List[0].Type.(*ast.SelectorExpr)
			if id, isID := star.X.(*ast.Ident); ok && isID && id.Name == "Node" && ctx.Sel.Name == "Context" {
				ops[fn.Name.Name] = method{fn, fn.Recv.List[0].Names[0].Name}
			}
		}
	}
	for _, want := range []string{"Get", "TTL", "Put", "PutAt", "Write", "MultiGet", "MultiContains", "MultiWrite", "RangeScan"} {
		if _, ok := ops[want]; !ok {
			t.Errorf("Node.%s is not recognised as a client-facing op: the rule below checks nothing for it", want)
		}
	}
	for name, m := range ops {
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if recv, isID := sel.X.(*ast.Ident); isID && recv.Name == m.recv {
					if _, isOp := ops[sel.Sel.Name]; isOp {
						t.Errorf("%s: Node.%s calls Node.%s: a client-facing op is one pipeline run", fset.Position(sel.Pos()), name, sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// TestEngineHasOneWriteBody keeps LavaStore's write path one body by
// construction: outside recovery only DB.Commit appends to the WAL or
// inserts into the memtable, and the exported *DB methods that write are
// Commit and Put, its forward. A second write entry is either a
// second body (caught by the first rule) or another caller of Commit
// (caught by the second).
func TestEngineHasOneWriteBody(t *testing.T) {
	fset := token.NewFileSet()
	// Open re-logs the recovered memtable into a fresh WAL; recover
	// rebuilds that memtable from the old logs.
	bodies := map[string]bool{"Commit": true, "Open": true, "recover": true}
	writers := map[string]bool{}
	for _, f := range parseNonTest(t, fset, "internal/lavastore") {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			onDB := false
			if fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					id, _ := star.X.(*ast.Ident)
					onDB = id != nil && id.Name == "DB"
				}
			}
			if onDB && fn.Name.Name == "Commit" {
				writers["Commit"] = true
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				field := ""
				if x, ok := sel.X.(*ast.SelectorExpr); ok {
					field = x.Sel.Name
				}
				switch name := sel.Sel.Name; {
				case field == "wal" && (name == "Append" || name == "AppendMany"), field == "mem" && name == "Put":
					if !bodies[fn.Name.Name] {
						t.Errorf("%s: %s calls %s.%s: only Commit writes the WAL and the memtable", fset.Position(call.Pos()), fn.Name.Name, field, name)
					}
				case name == "Commit":
					if !onDB || !fn.Name.IsExported() {
						t.Errorf("%s: %s calls Commit: only exported DB methods may forward to it", fset.Position(call.Pos()), fn.Name.Name)
					}
					writers[fn.Name.Name] = true
				}
				return true
			})
		}
	}
	if got := slices.Sorted(maps.Keys(writers)); !slices.Equal(got, []string{"Commit", "Put"}) {
		t.Errorf("the exported *lavastore.DB write methods are %v, want [Commit Put]", got)
	}
}

// TestOneTTLToDeadlineRule keeps expiry one absolute deadline below the
// client API. A relative TTL becomes a deadline only in
// lavastore.Deadline: no other code adds a duration to a time and takes
// its Unix seconds. Deadline's callers are DB.Put and the node's write
// op, the two places a client's TTL arrives; replication, repair copies
// and the split carry the deadline as it is. The way back, a deadline
// to the time left (time.Unix(...).Sub), is Node.TTL's alone.
func TestOneTTLToDeadlineRule(t *testing.T) {
	fset := token.NewFileSet()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			if dir := filepath.Dir(path); !slices.Contains(dirs, dir) {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	callers, backs := map[string]bool{}, map[string]bool{}
	for _, dir := range dirs {
		for _, f := range parseNonTest(t, fset, dir) {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = f.Name.Name + "." + id.Name + "." + fn.Name.Name
					}
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						if fun.Name == "Deadline" && f.Name.Name == "lavastore" {
							callers[name] = true
						}
					case *ast.SelectorExpr:
						if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "lavastore" && fun.Sel.Name == "Deadline" {
							callers[name] = true
						}
						inner, ok := fun.X.(*ast.CallExpr)
						if !ok {
							break
						}
						sel, ok := inner.Fun.(*ast.SelectorExpr)
						switch {
						case !ok:
						case fun.Sel.Name == "Unix" && sel.Sel.Name == "Add" && name != "lavastore.Deadline":
							t.Errorf("%s: %s turns a duration into a deadline: only lavastore.Deadline may", fset.Position(call.Pos()), name)
						case fun.Sel.Name == "Sub" && sel.Sel.Name == "Unix":
							if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
								backs[name] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	if got, want := slices.Sorted(maps.Keys(callers)), []string{"datanode.writeOp.io", "lavastore.DB.Put"}; !slices.Equal(got, want) {
		t.Errorf("lavastore.Deadline is called from %v, want %v", got, want)
	}
	if got, want := slices.Sorted(maps.Keys(backs)), []string{"datanode.Node.TTL"}; !slices.Equal(got, want) {
		t.Errorf("a deadline becomes the time left in %v, want %v", got, want)
	}
}

// TestEveryConfigFieldIsSet keeps the configuration free of knobs nobody
// turns: every exported field of the structs below is set somewhere in
// the module, bench/ included — by a keyed element of a composite literal
// of its type, or by an assignment outside the file that declares it
// (assignments there are the defaulting code). A field no caller sets is
// a constant that reads like a choice. A forwarded value such as
// `Replicas: cfg.Replicas` sets the inner field, so for a chain of
// forwards only the outermost unset field is named.
func TestEveryConfigFieldIsSet(t *testing.T) {
	structs := []string{
		"abase.ClusterConfig", "abase.TenantSpec", "abase.SubscribeOptions",
		"abase/internal/cache.AUConfig",
		"abase/internal/datanode.Config", "abase/internal/datanode.CostModel",
		"abase/internal/proxy.Config",
		"abase/internal/metaserver.Config", "abase/internal/metaserver.TenantSpec",
		"abase/internal/wfq.Config", "abase/internal/lavastore.Options",
	}
	unset := map[string]string{
		// The fsync path: ROADMAP item 8 gives writes an ack level that sets it.
		"abase/internal/lavastore.Options.SyncWrites": "",
	}
	var pkgs []*load.Package
	for _, dir := range []string{".", "bench"} {
		loaded, err := load.PackagesWithTests(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	// declFile maps each struct to the file that declares it; want holds
	// its fields until something sets them.
	declFile := map[string]string{}
	want := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, name := range structs {
				obj := pkg.Types.Scope().Lookup(name[strings.LastIndex(name, ".")+1:])
				if obj == nil || typeName(obj.Type()) != name || pkg.Fset.Position(obj.Pos()).Filename != pkg.Fset.Position(f.Pos()).Filename {
					continue
				}
				declFile[name] = pkg.Fset.Position(f.Pos()).Filename
				st := obj.Type().Underlying().(*types.Struct)
				for i := range st.NumFields() {
					if fld := st.Field(i); fld.Exported() {
						want[name+"."+fld.Name()] = true
					}
				}
			}
		}
	}
	if len(declFile) != len(structs) {
		t.Fatalf("found the declarations of %v, want all of %v", slices.Sorted(maps.Keys(declFile)), structs)
	}
	set := func(typ types.Type, field string) { delete(want, typeName(typ)+"."+field) }
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Syntax {
			file := pkg.Fset.Position(f.Pos()).Filename
			assigned := func(lhs ast.Expr) {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if s := info.Selections[sel]; ok && s != nil && s.Kind() == types.FieldVal && declFile[typeName(s.Recv())] != file {
					set(s.Recv(), sel.Sel.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set(info.TypeOf(n), key.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				}
				return true
			})
		}
	}
	for field := range unset {
		delete(want, field)
	}
	for _, field := range slices.Sorted(maps.Keys(want)) {
		t.Errorf("%s is set nowhere in the module: make it a constant", field)
	}
}

// typeName names typ, or the type it points to, as "pkgpath.Name", with
// the test-variant suffix of a package path dropped.
func typeName(typ types.Type) string {
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	path, _, _ := strings.Cut(named.Obj().Pkg().Path(), " [")
	return path + "." + named.Obj().Name()
}
