package lint

import (
	"go/ast"
	"go/types"
)

// PooledVec enforces the hot-path allocation rule of the parallel engine:
// inside internal/core — the filter/refine/parallel enumeration — residual
// and scratch bit vectors must come from the run's bitvec.Pool, not from
// raw bitvec.New calls. The enumeration evaluates millions of candidate
// itemsets; a stray New in a per-node or per-worker path turns the
// allocation-free slice-AND loop into a GC treadmill, and the pool is the
// mechanism that keeps vector reuse safe across workers.
//
// With adaptive slice storage the same rule covers the compressed
// encoding: the AND kernels work directly on a Slice's sparse payload, so
// core must never decompress one per candidate. The allocating decode
// methods — Materialize, Positions — are flagged alongside raw
// bitvec.New; they exist for serialization and tests, and a call in the
// enumeration means a full vector or position list materializes on every
// evaluation.
//
// Allocation sites that are genuinely cold (one-off setup with no pool in
// scope) carry a //lint:ignore pooledvec comment explaining why.
var PooledVec = &Analyzer{
	Name:    "pooledvec",
	Doc:     "internal/core takes bit vectors from bitvec.Pool and never decompresses a Slice",
	Applies: func(path string) bool { return pathHasSegment(path, "internal/core") },
	Run:     runPooledVec,
}

// sliceDecodeMethods are the (*bitvec.Slice) accessors that allocate a
// decoded form of the payload on every call.
var sliceDecodeMethods = map[string]bool{
	"Materialize": true,
	"Positions":   true,
}

func runPooledVec(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			pkg := fn.Pkg()
			if pkg == nil || !pathHasSegment(pkg.Path(), "internal/bitvec") {
				return true
			}
			switch {
			case fn.Name() == "New" && fn.Type().(*types.Signature).Recv() == nil:
				pass.Reportf(call.Pos(),
					"raw bitvec.New in the mining hot path; take the vector from the run's bitvec.Pool (vecs.Get/Put)")
			case sliceDecodeMethods[fn.Name()] && recvIsSlice(fn):
				pass.Reportf(call.Pos(),
					"Slice.%s decompresses the slice per call; the AND kernels (AndCountInto, OrInto) work on the compressed form directly", fn.Name())
			}
			return true
		})
	}
}

// recvIsSlice reports whether fn is a method on bitvec's Slice type.
func recvIsSlice(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Slice"
}

// calleeFunc resolves the function or method a call invokes, or nil for
// indirect calls and builtins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
