package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// detMapScope is the deterministic fan-out surface: every package whose
// results must be bit-identical between Workers=1 and Workers=N (the PR 4
// determinism contract, enforced at runtime by the CI determinism job and
// here at compile time). Map iteration order is randomized per run, so any
// map range on these paths that feeds ordering-sensitive work — sampling
// unit folds, bucket partitions, sampler accumulation — is a latent
// nondeterminism bug even when today's tests happen to pass.
var detMapScope = []string{"internal/shapley", "internal/exec", "internal/repair", "internal/dc", "internal/core", "internal/server", "internal/faults"}

// DetMap reports ranges over maps in deterministic fan-out packages.
//
// One escape is recognized mechanically: the sorted-keys idiom. A range
// body that only appends to one slice — `for k := range m { keys =
// append(keys, k) }` — is exempt when that slice is later passed to a
// sort.* or slices.Sort* call in the same function, because the collection
// itself is order-free and the sort restores determinism before any
// order-sensitive use. Any other map range must either be rewritten over
// sorted keys or carry a `//lint:allow detmap <reason>` directive arguing
// order-insensitivity (e.g. publication into a keyed cache, where
// last-write-wins per key and keys are disjoint).
var DetMap = &analysis.Analyzer{
	Name: "detmap",
	Doc: "forbid unordered map iteration in deterministic fan-out code " +
		"(internal/shapley, internal/exec, internal/repair, internal/dc); " +
		"sort keys first, or annotate //lint:allow detmap <reason> for " +
		"order-insensitive bodies",
	Run: runDetMap,
}

func runDetMap(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), detMapScope...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := types.Unalias(t).Underlying().(*types.Map); !ok {
				return true
			}
			if collected := keyCollectionTarget(rs); collected != nil && sortedLater(pass, stack, rs, collected) {
				return true
			}
			pass.Reportf(rs.For, "range over map %s iterates in nondeterministic order; collect and sort the keys first, or annotate //lint:allow detmap <reason> if the body is order-insensitive",
				types.TypeString(t, types.RelativeTo(pass.Pkg)))
			return true
		})
	}
	return nil, nil
}

// keyCollectionTarget recognizes the collection half of the sorted-keys
// idiom — a body that is exactly one `s = append(s, ...)` — and returns
// the accumulating identifier, nil otherwise.
func keyCollectionTarget(rs *ast.RangeStmt) *ast.Ident {
	if len(rs.Body.List) != 1 {
		return nil
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	return lhs
}

// sortedLater reports whether, after the range statement, the enclosing
// function passes collected to a function of package sort or slices —
// the restore-determinism half of the sorted-keys idiom.
func sortedLater(pass *analysis.Pass, stack []ast.Node, rs *ast.RangeStmt, collected *ast.Ident) bool {
	obj := pass.TypesInfo.ObjectOf(collected)
	if obj == nil {
		return false
	}
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return true
		}
		fn := calledFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
