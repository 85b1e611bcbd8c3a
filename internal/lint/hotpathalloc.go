package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc pins the kernel perf contract in the linter: a function
// whose doc comment carries a `//lint:hotpath` directive must not allocate
// per call. The AND kernels and evalSibling hold the measured
// CountItemSet win precisely because the steady state is zero-alloc —
// buffers come from pools or caller-owned scratch, and appends only ever
// reuse the target's own backing array. One stray make in a kernel turns a
// nanosecond loop into a garbage-collector client, and benchmarks alone
// only notice after the regression ships.
//
// Flagged inside a marked function: make, new, an append whose result
// does not feed back into its own first argument (growth into a fresh
// backing array), and function literals that capture enclosing variables
// (the closure and its captures escape together). The self-append form
//
//	buf = append(buf, x)        // and *p = append((*p)[:0], ...)
//
// is the sanctioned shape: it grows an existing caller-owned buffer.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //lint:hotpath must not allocate (no make/new/append-growth/capturing closures)",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkHotPath(pass, fd)
		}
	}
}

// isHotPath reports whether the function's doc comment contains the
// //lint:hotpath directive.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "lint:hotpath" {
			return true
		}
	}
	return false
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl) {
	// selfAppends collects append calls sanctioned by their assignment:
	// x = append(x, ...) in any spelling where the target renders the same
	// as the append's first argument (slicing like (*p)[:0] included).
	selfAppends := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinCall(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			target := types.ExprString(ast.Unparen(as.Lhs[i]))
			arg := ast.Unparen(call.Args[0])
			// Unwrap a reslice of the target: append(x[:0], ...) and
			// append((*p)[:0], ...) reuse the same backing array.
			if slice, ok := arg.(*ast.SliceExpr); ok {
				arg = ast.Unparen(slice.X)
			}
			if types.ExprString(arg) == target {
				selfAppends[call] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(pass, n, "make"):
				pass.Reportf(n.Pos(), "make in //lint:hotpath function %s allocates per call", fd.Name.Name)
			case isBuiltinCall(pass, n, "new"):
				pass.Reportf(n.Pos(), "new in //lint:hotpath function %s allocates per call", fd.Name.Name)
			case isBuiltinCall(pass, n, "append") && !selfAppends[n]:
				pass.Reportf(n.Pos(),
					"append in //lint:hotpath function %s grows into a fresh array; use x = append(x, ...) on a caller-owned buffer",
					fd.Name.Name)
			}
		case *ast.FuncLit:
			if capturesOuter(pass, fd, n) {
				pass.Reportf(n.Pos(),
					"closure in //lint:hotpath function %s captures enclosing variables; the capture escapes to the heap",
					fd.Name.Name)
			}
			return false // don't double-report allocations inside; the capture is the finding
		}
		return true
	})
}

// isBuiltinCall reports a call to the named builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// capturesOuter reports whether the literal references a variable declared
// in the enclosing function but outside the literal itself.
func capturesOuter(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			captures = true
			return false
		}
		return true
	})
	return captures
}
