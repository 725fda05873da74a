// Package lockdiscipline enforces mutex pairing and the +locked
// calling convention. A sync.Mutex/RWMutex acquired in a function must
// be released on every return path (directly or by defer), must not be
// re-acquired while held, and a function documented as
//
//	// +locked:m.mu
//
// (it runs with m.mu already held — the repository's *Locked naming
// convention) must not lock m.mu itself and must only be called with
// the lock held.
//
// The checker walks each function's statement tree symbolically,
// branching at if/switch/select and excluding terminated paths from
// merges. Merging takes the intersection of held locks (definitely
// held), so conditional locking degrades to silence, never to false
// positives; functions using goto are skipped.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"abase/internal/analysis"
)

// Analyzer is the lockdiscipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "mutexes must be released on every return path; +locked contracts hold\n\n" +
		"Rules: a lock acquired in a function is released on all return paths\n" +
		"(or deferred); no re-lock of a held mutex (self-deadlock); a function\n" +
		"annotated '// +locked:x.mu' neither locks x.mu nor may be called\n" +
		"without it held; functions named *Locked carry the annotation.",
	Run: run,
}

// lockState tracks one mutex key on one path.
type lockState struct {
	write     int  // Lock depth (>1 is already reported)
	read      int  // RLock depth
	deferredW int  // deferred Unlock count
	deferredR int  // deferred RUnlock count
	seeded    bool // held by +locked contract, not required released
	fuzzy     bool // TryLock or divergent merge: stop judging this key
}

// state is the per-path lock environment.
type state map[string]*lockState

func (s state) get(key string) *lockState {
	ls, ok := s[key]
	if !ok {
		ls = &lockState{}
		s[key] = ls
	}
	return ls
}

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// merge folds other into s as the intersection of definitely-held
// locks, marking keys whose depth disagrees, in either direction, as
// fuzzy.
func (s state) merge(other state) {
	for k, ls := range s {
		o, ok := other[k]
		if !ok {
			o = &lockState{}
		}
		if o.write != ls.write {
			ls.write = min(ls.write, o.write)
			ls.fuzzy = true
		}
		if o.read != ls.read {
			ls.read = min(ls.read, o.read)
			ls.fuzzy = true
		}
		ls.deferredW = min(ls.deferredW, o.deferredW)
		ls.deferredR = min(ls.deferredR, o.deferredR)
		ls.fuzzy = ls.fuzzy || o.fuzzy
	}
	for k, o := range other {
		if _, ok := s[k]; !ok && (o.write > 0 || o.read > 0 || o.fuzzy) {
			c := *o
			c.fuzzy = true
			c.write, c.read = 0, 0
			s[k] = &c
		}
	}
}

// contract is one +locked requirement on a function: the lock path
// relative to the receiver (recvIdx >= 0) or an absolute package-level
// path (recvIdx < 0).
type contract struct {
	relPath string // e.g. "mu" or "db.mu" (after the receiver), or full path
	viaRecv bool
}

var lockedRe = regexp.MustCompile(`\+locked:([A-Za-z_][A-Za-z0-9_.]*)`)

func run(pass *analysis.Pass) (interface{}, error) {
	contracts := collectContracts(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, contracts)
			// Function literals are independent scopes: a goroutine or
			// callback must satisfy the discipline on its own.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					w := newWalker(pass, contracts)
					w.walkFunc(fl.Body, nil)
					return false
				}
				return true
			})
		}
	}
	return nil, nil
}

// collectContracts maps each declared function to its +locked
// requirements and reports *Locked functions missing the annotation.
func collectContracts(pass *analysis.Pass) map[*types.Func][]contract {
	out := map[*types.Func][]contract{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			var cs []contract
			if fd.Doc != nil {
				for _, m := range lockedRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
					path := m[1]
					recv := recvName(fd)
					if recv != "" && strings.HasPrefix(path, recv+".") {
						cs = append(cs, contract{relPath: strings.TrimPrefix(path, recv+"."), viaRecv: true})
					} else {
						cs = append(cs, contract{relPath: path})
					}
				}
			}
			if len(cs) == 0 && strings.HasSuffix(fd.Name.Name, "Locked") && usesSyncLocks(pass, fd) {
				pass.Reportf(fd.Name.Pos(),
					"%s is named *Locked but carries no '// +locked:<mutex>' contract; document which lock the caller must hold",
					fd.Name.Name)
			}
			out[fn] = cs
		}
	}
	return out
}

// usesSyncLocks reports whether the function's package even mentions a
// sync mutex in the receiver type — the *Locked naming rule only
// applies where there is a lock to hold. (Conservative: methods whose
// receiver struct has no mutex field anywhere are skipped.)
func usesSyncLocks(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true // package-level *Locked helper: still must document
	}
	t := pass.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// checkFunc walks one declared function body.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, contracts map[*types.Func][]contract) {
	w := newWalker(pass, contracts)
	seed := state{}
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn != nil {
		for _, c := range contracts[fn] {
			key := c.relPath
			if c.viaRecv {
				recv := recvName(fd)
				if recv == "" {
					continue
				}
				key = recv + "." + c.relPath
			}
			ls := seed.get(key)
			ls.write = 1
			ls.seeded = true
		}
	}
	w.walkFunc(fd.Body, seed)
}

// recvName returns the receiver identifier of fd, or "".
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// walker carries the reporting context for one function body.
type walker struct {
	pass      *analysis.Pass
	contracts map[*types.Func][]contract
	bailed    bool // goto seen: abandon judgement
}

func newWalker(pass *analysis.Pass, contracts map[*types.Func][]contract) *walker {
	return &walker{pass: pass, contracts: contracts}
}

// walkFunc analyzes a function body seeded with st (nil = empty) and
// checks the implicit fallthrough return at the end.
func (w *walker) walkFunc(body *ast.BlockStmt, st state) {
	if st == nil {
		st = state{}
	}
	exits := w.walkStmts(body.List, st)
	if w.bailed {
		return
	}
	if !exits && len(body.List) > 0 {
		w.checkReturn(st, body.List[len(body.List)-1].End())
	}
}

// walkStmts walks a statement list, mutating st along the fallthrough
// path. It returns true when the list unconditionally terminates
// (return/panic), meaning st no longer flows anywhere.
func (w *walker) walkStmts(list []ast.Stmt, st state) bool {
	for _, stmt := range list {
		if w.bailed {
			return true
		}
		if w.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

// walkStmt processes one statement; true means flow terminates here.
func (w *walker) walkStmt(stmt ast.Stmt, st state) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.event(r, st)
		}
		w.checkReturn(st, s.Pos())
		return true
	case *ast.BranchStmt:
		if s.Tok.String() == "goto" {
			w.bailed = true
		}
		// break/continue end this path within the enclosing construct.
		return true
	case *ast.ExprStmt:
		w.event(s.X, st)
		return isPanic(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.event(rhs, st)
		}
		return false
	case *ast.DeferStmt:
		w.deferEvent(s.Call, st)
		return false
	case *ast.GoStmt:
		// The goroutine is its own scope (handled via FuncLit pass).
		return false
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.event(s.Cond, st)
		thenSt := st.clone()
		thenExit := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseExit := false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseExit = w.walkStmts(e.List, elseSt)
			case *ast.IfStmt:
				elseExit = w.walkStmt(e, elseSt)
			}
		}
		switch {
		case thenExit && elseExit:
			return true
		case thenExit:
			replace(st, elseSt)
		case elseExit:
			replace(st, thenSt)
		default:
			replace(st, thenSt)
			st.merge(elseSt)
		}
		return false
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.event(s.Cond, st)
		}
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		// Conservative: after the loop, only locks held both before and
		// after one iteration are definitely held.
		st.merge(bodySt)
		// A `for {}` with no condition only exits via break/return.
		return s.Cond == nil && !hasBreak(s.Body)
	case *ast.RangeStmt:
		w.event(s.X, st)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		st.merge(bodySt)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranches(stmt, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.SendStmt:
		w.event(s.Value, st)
		return false
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		return false
	}
	return false
}

// walkBranches handles switch/type-switch/select uniformly.
func (w *walker) walkBranches(stmt ast.Stmt, st state) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.event(s.Tag, st)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var live []state
	allExit := len(clauses) > 0
	for _, clause := range clauses {
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.walkStmt(c.Comm, st.clone())
			}
			body = c.Body
		}
		cs := st.clone()
		if !w.walkStmts(body, cs) {
			live = append(live, cs)
			allExit = false
		}
	}
	if _, isSelect := stmt.(*ast.SelectStmt); !hasDefault && !isSelect {
		// Without a default the switch may fall through unentered.
		live = append(live, st.clone())
		allExit = false
	}
	if allExit && len(clauses) > 0 {
		return true
	}
	if len(live) > 0 {
		replace(st, live[0])
		for _, other := range live[1:] {
			st.merge(other)
		}
	}
	return false
}

// replace overwrites dst's contents with src's.
func replace(dst, src state) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// event scans an expression (not descending into FuncLits) for lock
// operations and +locked callee contracts.
func (w *walker) event(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.callEvent(call, st)
		return true
	})
}

// callEvent applies one call's lock semantics to st.
func (w *walker) callEvent(call *ast.CallExpr, st state) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		if op, key := w.lockOp(sel); op != "" && key != "" {
			w.applyOp(op, key, st, call)
			return
		}
	}
	// +locked contract check on direct callees in this package.
	fn := analysis.CalleeOf(w.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	cs, ok := w.contracts[fn]
	if !ok || len(cs) == 0 {
		return
	}
	for _, c := range cs {
		key := c.relPath
		if c.viaRecv {
			if sel == nil {
				continue
			}
			base := analysis.ExprKey(sel.X)
			if base == "" {
				continue
			}
			key = base + "." + c.relPath
		}
		ls, held := st[key]
		if !held || (ls.write == 0 && ls.read == 0 && !ls.fuzzy) {
			w.pass.Reportf(call.Pos(),
				"call to %s requires holding %s (+locked contract), which is not held on this path",
				fn.Name(), key)
		}
	}
}

// lockOp classifies a selector call as a sync lock operation,
// returning the op name and the mutex key ("" when not a lock op or
// the receiver is not a stable ident/selector chain).
func (w *walker) lockOp(sel *ast.SelectorExpr) (op, key string) {
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	// The receiver must actually be a sync.Mutex/RWMutex value.
	tv, ok := w.pass.TypesInfo.Types[sel.X]
	if !ok || !isMutexType(tv.Type) {
		return "", ""
	}
	return name, analysis.ExprKey(sel.X)
}

// applyOp mutates st for one lock operation and reports violations.
func (w *walker) applyOp(op, key string, st state, call *ast.CallExpr) {
	ls := st.get(key)
	if ls.fuzzy {
		return
	}
	switch op {
	case "Lock":
		if ls.write > 0 || ls.read > 0 {
			w.pass.Reportf(call.Pos(), "%s.Lock() while already holding %s on this path: self-deadlock", key, key)
		}
		ls.write++
	case "RLock":
		if ls.write > 0 {
			w.pass.Reportf(call.Pos(), "%s.RLock() while already holding %s.Lock() on this path: self-deadlock", key, key)
		}
		ls.read++
	case "Unlock":
		if ls.write == 0 && !ls.seeded {
			w.pass.Reportf(call.Pos(), "%s.Unlock() without a matching Lock() on this path", key)
			return
		}
		if ls.write > 0 {
			ls.write--
		}
	case "RUnlock":
		if ls.read == 0 && !ls.seeded {
			w.pass.Reportf(call.Pos(), "%s.RUnlock() without a matching RLock() on this path", key)
			return
		}
		if ls.read > 0 {
			ls.read--
		}
	case "TryLock", "TryRLock":
		ls.fuzzy = true
	}
}

// deferEvent registers deferred unlocks (direct or inside a deferred
// closure) and treats other deferred calls as ordinary events.
func (w *walker) deferEvent(call *ast.CallExpr, st state) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if op, key := w.lockOp(sel); key != "" {
			ls := st.get(key)
			switch op {
			case "Unlock":
				ls.deferredW++
			case "RUnlock":
				ls.deferredR++
			}
			return
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				if op, key := w.lockOp(sel); key != "" {
					ls := st.get(key)
					if op == "Unlock" {
						ls.deferredW++
					} else if op == "RUnlock" {
						ls.deferredR++
					}
				}
			}
			return true
		})
	}
}

// checkReturn reports locks still held (beyond deferred releases and
// seeds) at a return point.
func (w *walker) checkReturn(st state, at token.Pos) {
	for key, ls := range st {
		if ls.fuzzy || ls.seeded {
			continue
		}
		if ls.write > ls.deferredW {
			w.pass.Reportf(at, "returns while still holding %s (no Unlock on this path; add an unlock or defer)", key)
		}
		if ls.read > ls.deferredR {
			w.pass.Reportf(at, "returns while still holding %s.RLock (no RUnlock on this path; add an unlock or defer)", key)
		}
	}
}

// isPanic reports whether e is a call to panic.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// hasBreak reports whether body contains a break at this loop's level.
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
	return found
}

// isMutexType reports whether t (or what it points to) is sync.Mutex
// or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
