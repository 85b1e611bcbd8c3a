package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapshotSafety enforces the serving layer's core contract: a value
// published as a snapshot — stored through an atomic.Pointer, or returned
// from a Snapshot() call — is write-once. Readers on other
// goroutines hold it with no lock; one field store or mutating method call
// after publication corrupts the byte-identity every determinism test
// assumes, silently, and only under concurrency.
//
// The analysis is flow-sensitive within a function and fact-driven across
// packages. Each package exports (snapshotFact) which of its functions
// return published values and which methods of its types mutate their
// receiver; a dependent package's diagnostics consume those facts, so
// internal/serve calling sigfile's BBS.Insert on a snapshot is flagged
// without the analyzer hard-coding either package.
//
// Within a function, a variable's publication level changes over source
// positions: it becomes published when assigned from a publishing call or
// when passed to atomic.Pointer.Store, and reverts when reassigned a fresh
// value. Containers that hold published elements ("holds" level) may be
// freely appended to and indexed into, but an element read back out is
// published. Parameters and receivers are never published — masters are
// handed to their single writer by parameter, and a type's own methods
// build their result before publication.
var SnapshotSafety = &Analyzer{
	Name: "snapshotsafety",
	Doc:  "values published via atomic.Pointer.Store or Snapshot() are write-once",
	Applies: func(path string) bool {
		return pathHasSegment(path, "internal/serve") ||
			pathHasSegment(path, "internal/shard") ||
			pathHasSegment(path, "internal/sigfile") ||
			pathHasSegment(path, "internal/core") ||
			pathHasSegment(path, "internal/pager")
	},
	Run:   runSnapshotSafety,
	Facts: snapshotFacts,
}

// snapshotFact is the per-package fact: which functions publish and which
// methods mutate. Keys are fully qualified ("pkg/path.Type.Method" or
// "pkg/path.Func" for publishers, "pkg/path.Type" for mutators).
type snapshotFact struct {
	// Publishers maps a function key to "published" (its result is a
	// shared snapshot) or "holds" (its result is a container of them).
	Publishers map[string]string
	// Mutators maps a type key to the methods that mutate their receiver,
	// directly or through same-type method calls.
	Mutators map[string][]string
}

// Publication levels, ordered: a bigger level is more published.
const (
	lvlNone = iota
	lvlHolds
	lvlPublished
)

func levelName(l int) string {
	if l == lvlHolds {
		return "holds"
	}
	return "published"
}

func levelOf(name string) int {
	if name == "holds" {
		return lvlHolds
	}
	return lvlPublished
}

// typeKey names a defined type across packages.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// funcKey names a function or method across packages.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if recv := recvNamed(fn); recv != nil {
		key += recv.Obj().Name() + "."
	}
	return key + fn.Name()
}

// recvNamed returns the named type of fn's receiver, or nil for plain
// functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return derefNamed(sig.Recv().Type())
}

// derefNamed unwraps pointers down to a named type, or nil.
func derefNamed(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isAtomicPointerMethod reports a call to sync/atomic's Pointer[T].Load or
// Store through the selector.
func isAtomicPointerMethod(pass *Pass, sel *ast.SelectorExpr, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	named := derefNamed(tv.Type)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// snapshotFacts computes the package's publisher and mutator fact.
func snapshotFacts(pass *Pass) any {
	fact := &snapshotFact{
		Publishers: map[string]string{},
		Mutators:   mutatorMethods(pass),
	}
	// Publisher discovery is a package-level fixpoint: a function that
	// returns the result of another local publisher is itself a publisher.
	// Three rounds bound the chains this codebase (and any sane one) has.
	for round := 0; round < 3; round++ {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				st := newSnapState(pass, fact)
				st.buildEvents(fd.Body)
				lvl := lvlNone
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false // a closure's returns are not the function's
					}
					ret, ok := n.(*ast.ReturnStmt)
					if !ok {
						return true
					}
					for _, res := range ret.Results {
						if l := st.exprLevel(res, ret.End()); l > lvl {
							lvl = l
						}
					}
					return true
				})
				if lvl > lvlNone {
					fact.Publishers[funcKey(fn)] = levelName(lvl)
				}
			}
		}
	}
	if len(fact.Publishers) == 0 && len(fact.Mutators) == 0 {
		return nil
	}
	return fact
}

// mutatorMethods finds, for each type defined in the package, the methods
// that mutate their receiver: direct field/element stores, delete/clear/
// copy into receiver state, or (transitively) calls to same-type mutating
// methods on the receiver. Method calls on receiver sub-fields do not
// count — b.stats.Add() mutates the stats object, which has its own
// synchronization, not the snapshot structure itself.
func mutatorMethods(pass *Pass) map[string][]string {
	type methodInfo struct {
		fn      *types.Func
		key     string   // type key
		mutates bool     // direct mutation observed
		calls   []string // same-type methods invoked on the receiver
	}
	var methods []*methodInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			named := recvNamed(fn)
			if named == nil || typeKey(named) == "" {
				continue
			}
			var recv *types.Var
			if len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
				recv, _ = pass.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
			}
			if recv == nil {
				continue
			}
			mi := &methodInfo{fn: fn, key: typeKey(named)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if storesIntoVar(pass, lhs, recv) {
							mi.mutates = true
						}
					}
				case *ast.IncDecStmt:
					if storesIntoVar(pass, n.X, recv) {
						mi.mutates = true
					}
				case *ast.CallExpr:
					if name, arg := builtinWrite(pass, n); name != "" && arg != nil {
						if v, steps := rootVar(pass, arg); v == recv && steps >= 0 {
							mi.mutates = true
						}
					}
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.Info.Uses[id] == recv {
							mi.calls = append(mi.calls, sel.Sel.Name)
						}
					}
				}
				return true
			})
			methods = append(methods, mi)
		}
	}

	// Transitive closure: a method calling a mutating same-type method on
	// its receiver mutates too. Bounded rounds keep this deterministic.
	for round := 0; round < 4; round++ {
		for _, mi := range methods {
			if mi.mutates {
				continue
			}
			for _, callee := range mi.calls {
				for _, other := range methods {
					if other.key == mi.key && other.fn.Name() == callee && other.mutates {
						mi.mutates = true
					}
				}
			}
		}
	}

	out := map[string][]string{}
	for _, mi := range methods {
		if mi.mutates {
			out[mi.key] = append(out[mi.key], mi.fn.Name())
		}
	}
	for _, mi := range methods {
		sort.Strings(out[mi.key])
	}
	return out
}

// storesIntoVar reports whether lhs writes through v's structure: at least
// one field selection, index or dereference between the store and the
// variable (a plain `v = x` only rebinds the local).
func storesIntoVar(pass *Pass, lhs ast.Expr, v *types.Var) bool {
	root, steps := rootVar(pass, lhs)
	return root == v && steps >= 1
}

// rootVar walks a selector/index/deref chain to its base variable,
// counting the steps taken.
func rootVar(pass *Pass, e ast.Expr) (*types.Var, int) {
	steps := 0
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel := pass.Info.Selections[x]; sel != nil && sel.Kind() != types.FieldVal {
				return nil, 0 // method value — not a storage path
			}
			e = x.X
			steps++
		case *ast.IndexExpr:
			e = x.X
			steps++
		case *ast.StarExpr:
			e = x.X
			steps++
		case *ast.Ident:
			v, _ := pass.Info.Uses[x].(*types.Var)
			if v == nil {
				v, _ = pass.Info.Defs[x].(*types.Var)
			}
			return v, steps
		default:
			return nil, 0
		}
	}
}

// builtinWrite recognizes delete/clear/copy calls, returning the builtin
// name and the written-to argument.
func builtinWrite(pass *Pass, call *ast.CallExpr) (string, ast.Expr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", nil
	}
	if _, ok := pass.Info.Uses[id].(*types.Builtin); !ok {
		return "", nil
	}
	switch id.Name {
	case "delete", "clear", "copy":
		if len(call.Args) > 0 {
			return id.Name, call.Args[0]
		}
	}
	return "", nil
}

// pubEvent is one change of a variable's publication level.
type pubEvent struct {
	pos   token.Pos
	level int
}

// snapState is the per-function flow state.
type snapState struct {
	pass   *Pass
	local  *snapshotFact // the fact under construction (facts phase) or the completed own fact
	events map[*types.Var][]pubEvent
}

func newSnapState(pass *Pass, local *snapshotFact) *snapState {
	return &snapState{pass: pass, local: local, events: map[*types.Var][]pubEvent{}}
}

// buildEvents computes the publication events of every local in the body.
// Event construction consults levels, which depend on events, so it runs a
// bounded fixpoint — three rounds cover chains like s := load(); t := s.
func (st *snapState) buildEvents(body *ast.BlockStmt) {
	for round := 0; round < 3; round++ {
		next := map[*types.Var][]pubEvent{}
		add := func(v *types.Var, pos token.Pos, level int) {
			if v != nil {
				next[v] = append(next[v], pubEvent{pos, level})
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					lvl := st.exprLevel(n.Rhs[0], n.End())
					for _, lhs := range n.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							add(identVar(st.pass, id), n.End(), lvl)
						}
					}
					return true
				}
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						add(identVar(st.pass, id), n.End(), st.exprLevel(n.Rhs[i], n.End()))
						continue
					}
					// An element store of a published value promotes the
					// container to holds: after snaps[i] = sh.snap.Load(),
					// reads back out of snaps yield published values.
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if st.exprLevel(n.Rhs[i], n.End()) == lvlPublished {
							if id, ok := ast.Unparen(idx.X).(*ast.Ident); ok {
								if v := identVar(st.pass, id); st.levelAt(v, n.Pos()) == lvlNone {
									add(v, n.End(), lvlHolds)
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				lvl := st.exprLevel(n.X, n.X.End())
				if lvl == lvlNone {
					return true
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					add(identVar(st.pass, id), n.X.End(), lvlPublished)
				}
				if lvl == lvlPublished {
					if id, ok := n.Key.(*ast.Ident); ok {
						add(identVar(st.pass, id), n.X.End(), lvlPublished)
					}
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || !isAtomicPointerMethod(st.pass, sel, "Store") || len(n.Args) != 1 {
					return true
				}
				arg := ast.Unparen(n.Args[0])
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = ast.Unparen(u.X)
				}
				if id, ok := arg.(*ast.Ident); ok {
					add(identVar(st.pass, id), n.End(), lvlPublished)
				}
			}
			return true
		})
		st.events = next
	}
}

// identVar resolves an identifier to its variable object.
func identVar(pass *Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.Info.Uses[id].(*types.Var)
	return v
}

// levelAt returns v's publication level at position p: the level set by
// the latest event strictly before p (events are scanned, not assumed
// sorted).
func (st *snapState) levelAt(v *types.Var, p token.Pos) int {
	lvl := lvlNone
	best := token.NoPos
	for _, ev := range st.events[v] {
		if ev.pos < p && (best == token.NoPos || ev.pos >= best) {
			best = ev.pos
			lvl = ev.level
		}
	}
	return lvl
}

// exprLevel evaluates an expression's publication level at position p.
func (st *snapState) exprLevel(e ast.Expr, p token.Pos) int {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return st.levelAt(identVar(st.pass, x), p)
	case *ast.SelectorExpr:
		if sel := st.pass.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if st.exprLevel(x.X, p) == lvlPublished {
				return lvlPublished
			}
		}
		return lvlNone
	case *ast.IndexExpr:
		if st.exprLevel(x.X, p) >= lvlHolds {
			return lvlPublished
		}
		return lvlNone
	case *ast.StarExpr:
		return st.exprLevel(x.X, p)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return st.exprLevel(x.X, p)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if st.exprLevel(elt, p) == lvlPublished {
				return lvlHolds
			}
		}
		return lvlNone
	case *ast.TypeAssertExpr:
		return st.exprLevel(x.X, p)
	case *ast.CallExpr:
		return st.callLevel(x, p)
	}
	return lvlNone
}

// callLevel evaluates the publication level of a call's result.
func (st *snapState) callLevel(call *ast.CallExpr, p token.Pos) int {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.pass.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
			// append(c, pub...) yields a holds-container; otherwise the
			// result keeps the first argument's level.
			for _, arg := range call.Args[1:] {
				if st.exprLevel(arg, p) == lvlPublished {
					return lvlHolds
				}
			}
			if len(call.Args) > 0 {
				return st.exprLevel(call.Args[0], p)
			}
			return lvlNone
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isAtomicPointerMethod(st.pass, sel, "Load") {
		return lvlPublished
	}
	fn := calleeFunc(st.pass, call)
	if fn == nil {
		return lvlNone
	}
	// The repository-wide naming contract: Snapshot() returns
	// write-once views, whichever package declares them.
	if fn.Name() == "Snapshot" && hasResults(fn) {
		return lvlPublished
	}
	return st.publisherLevel(fn)
}

// hasResults reports whether fn returns anything.
func hasResults(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0
}

// publisherLevel looks a callee up in the publisher facts: the local
// package's in-progress fact first, then the exported fact of the callee's
// package.
func (st *snapState) publisherLevel(fn *types.Func) int {
	key := funcKey(fn)
	if key == "" {
		return lvlNone
	}
	if st.local != nil {
		if name, ok := st.local.Publishers[key]; ok {
			return levelOf(name)
		}
	}
	if fn.Pkg() != nil {
		if fact, ok := st.pass.Fact(fn.Pkg().Path()).(*snapshotFact); ok && fact != nil {
			if name, ok := fact.Publishers[key]; ok {
				return levelOf(name)
			}
		}
	}
	return lvlNone
}

// mutatorNamed reports whether method name mutates receivers of the named
// type, per the type's package fact.
func (st *snapState) mutatorNamed(named *types.Named, name string) bool {
	key := typeKey(named)
	if key == "" {
		return false
	}
	if st.local != nil {
		for _, m := range st.local.Mutators[key] {
			if m == name {
				return true
			}
		}
	}
	if pkg := named.Obj().Pkg(); pkg != nil {
		if fact, ok := st.pass.Fact(pkg.Path()).(*snapshotFact); ok && fact != nil {
			for _, m := range fact.Mutators[key] {
				if m == name {
					return true
				}
			}
		}
	}
	return false
}

// runSnapshotSafety is the diagnostics pass.
func runSnapshotSafety(pass *Pass) {
	var local *snapshotFact
	if f, ok := pass.Fact(pass.Pkg.Path()).(*snapshotFact); ok {
		local = f
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := newSnapState(pass, local)
			st.buildEvents(fd.Body)
			st.checkMutations(fd.Body)
		}
	}
}

// checkMutations reports every write through a published value.
func (st *snapState) checkMutations(body *ast.BlockStmt) {
	report := func(pos token.Pos, what string) {
		st.pass.Reportf(pos, "%s a published snapshot; published values are write-once "+
			"(mutate the master before Store/Snapshot, or work on a QueryClone)", what)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if base := writeBase(lhs); base != nil && st.exprLevel(base, lhs.Pos()) == lvlPublished {
					report(lhs.Pos(), "stores into")
				}
			}
		case *ast.IncDecStmt:
			if base := writeBase(n.X); base != nil && st.exprLevel(base, n.Pos()) == lvlPublished {
				report(n.Pos(), "increments a field of")
			}
		case *ast.CallExpr:
			if name, arg := builtinWrite(st.pass, n); name != "" && arg != nil {
				if st.exprLevel(arg, n.Pos()) == lvlPublished {
					report(n.Pos(), name+" on")
				}
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := st.pass.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			named := derefNamed(selection.Recv())
			if named == nil {
				return true
			}
			if st.exprLevel(sel.X, n.Pos()) == lvlPublished && st.mutatorNamed(named, sel.Sel.Name) {
				report(n.Pos(), "calls mutating method "+named.Obj().Name()+"."+sel.Sel.Name+" on")
			}
		}
		return true
	})
}

// writeBase returns the expression whose object a store mutates: the X of
// a selector, index or deref on the left-hand side. A plain identifier
// store only rebinds a local and returns nil. Storing INTO an element of a
// holds-container is building, not mutating, so only the published level
// of the base is ever flagged by the caller.
func writeBase(lhs ast.Expr) ast.Expr {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.StarExpr:
		return x.X
	}
	return nil
}
