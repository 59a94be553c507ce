package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var maprangeAnalyzer = &Analyzer{
	Name: "maprange",
	Doc: "flag range-over-map loops whose bodies are ordering-sensitive " +
		"(append to a slice, schedule events, write a hash, or store " +
		"into indexed results): Go randomizes map iteration per run, so " +
		"such loops leak nondeterminism into digests unless the loop " +
		"only collects keys that are sorted afterwards.",
	Run: runMaprange,
}

// scheduleMethods are engine entry points whose invocation order decides
// event-ID allocation and therefore tie-breaking and digests.
var scheduleMethods = map[string]bool{
	"Schedule": true,
	"At":       true,
	"AtCancel": true,
}

// hashWriteMethods feed bytes into a running digest.
var hashWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"Sum":         true,
	"Sum32":       true,
	"Sum64":       true,
}

// rangeOp is one ordering-sensitive operation found in a loop body.
type rangeOp struct {
	kind string
	pos  ast.Node
	// appendTarget is the destination expression of an append op,
	// rendered as source text; empty for non-append ops.
	appendTarget string
}

func runMaprange(prog *Program) []Finding {
	var fs []Finding
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fs = append(fs, maprangeInFunc(prog, pkg, fd)...)
			}
		}
	}
	return fs
}

func maprangeInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Finding {
	var fs []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ops := mapRangeOps(pkg, rng.Body)
		if len(ops) == 0 {
			return true
		}
		if onlySortedCollects(pkg, fd, rng, ops) {
			return true
		}
		op := ops[0]
		fs = append(fs, prog.finding("maprange", rng.Pos(),
			"range over map with ordering-sensitive body (%s at line %d); iterate keys in sorted order, or collect and sort them before this work",
			op.kind, prog.Fset.Position(op.pos.Pos()).Line))
		return true
	})
	return fs
}

// mapRangeOps scans a range body for operations whose effect depends on
// iteration order, in source order.
func mapRangeOps(pkg *Package, body *ast.BlockStmt) []rangeOp {
	var ops []rangeOp
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					ops = append(ops, rangeOp{
						kind:         "append",
						pos:          n,
						appendTarget: exprString(n.Args[0]),
					})
					return true
				}
			}
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && hashWriteMethods[sel.Sel.Name] {
				if tv, ok := pkg.Info.Types[sel.X]; ok && isHashType(tv.Type) {
					ops = append(ops, rangeOp{kind: "hash write (" + exprString(n.Fun) + ")", pos: n})
					return true
				}
			}
			fn := calleeFunc(pkg.Info, n)
			if fn == nil {
				return true
			}
			if recvTypeName(fn) == "Engine" && scheduleMethods[fn.Name()] {
				ops = append(ops, rangeOp{kind: "event scheduling (" + funcDisplayName(fn) + ")", pos: n})
				return true
			}
		case *ast.AssignStmt:
			// Storing into an indexed slice position builds an ordered
			// result structure from unordered iteration.
			for _, lhs := range n.Lhs {
				ix, ok := unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				tv, ok := pkg.Info.Types[ix.X]
				if !ok {
					continue
				}
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
					ops = append(ops, rangeOp{kind: "indexed slice store", pos: n})
				}
			}
		}
		return true
	})
	return ops
}

// isHashType reports whether t is a hash-like value: declared in a
// hash/crypto package, or named like a digest interface. The receiver
// expression's type is checked (not the method's declared receiver)
// because interface dispatch resolves hash.Hash64.Write to the embedded
// io.Writer method.
func isHashType(t types.Type) bool {
	pkgPath := namedTypePkg(t)
	if strings.HasPrefix(pkgPath, "hash") || strings.HasPrefix(pkgPath, "crypto") {
		return true
	}
	switch namedTypeName(t) {
	case "Hash", "Hash32", "Hash64":
		return true
	}
	return false
}

// onlySortedCollects reports whether every op in the loop is an append
// whose destination is sorted by a sort.*/slices.Sort* call later in the
// same function — the canonical collect-keys-then-sort idiom.
func onlySortedCollects(pkg *Package, fd *ast.FuncDecl, rng *ast.RangeStmt, ops []rangeOp) bool {
	targets := make(map[string]bool)
	for _, op := range ops {
		if op.kind != "append" {
			return false
		}
		targets[op.appendTarget] = true
	}
	sorted := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		if args, ok := isSortCall(pkg.Info, call); ok && len(args) > 0 {
			sorted[exprString(args[0])] = true
		}
		return true
	})
	for t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}
