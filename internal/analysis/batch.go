package analysis

import (
	"go/ast"
	"go/types"
)

// ColumnStatsAnalyzer enforces the column-kernel accumulation
// discipline: inside the loops of a //dynexcheck:hot method of a column
// kernel (a type with Batch and Outcomes methods — Batch itself and the
// loops it dispatches to, such as a one-member fast path), counters
// must accumulate in plain locals or per-member fields, never through a
// cache.Stats value. A per-reference write through a Stats value — a
// Stats method call (Record, Add) or an assignment targeting a
// Stats-typed expression — re-introduces exactly the per-access
// bookkeeping the kernels exist to hoist.
var ColumnStatsAnalyzer = &Analyzer{
	Name: "batch-stats",
	Doc:  "ban per-reference cache.Stats writes inside the loops of //dynexcheck:hot column kernel methods; accumulate in locals, flush once per batch",
	Run:  runColumnStats,
}

func runColumnStats(pass *Pass) {
	statsType := cacheStatsType(pass.Module)
	if statsType == nil {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(fd) || !isColumnMethod(info, fd) {
				continue
			}
			// Collect the loop bodies; a write is per-reference only when it
			// executes once per iteration.
			var loops []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, n)
				}
				return true
			})
			if len(loops) == 0 {
				continue
			}
			inLoop := func(n ast.Node) bool {
				for _, l := range loops {
					if posWithin(n.Pos(), l) {
						return true
					}
				}
				return false
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fn := calleeFunc(info, x)
					if fn == nil || !isStatsMethod(fn, statsType) || !inLoop(x) {
						return true
					}
					pass.Reportf(x.Pos(),
						"Stats.%s inside a column kernel loop: accumulate in locals and flush once per batch",
						fn.Name())
				case *ast.AssignStmt:
					if !inLoop(x) {
						return true
					}
					for _, lhs := range x.Lhs {
						if e := statsPrefix(info, lhs, statsType); e != nil {
							pass.Reportf(lhs.Pos(),
								"write through cache.Stats inside a column kernel loop: accumulate in locals and flush once per batch")
						}
					}
				case *ast.IncDecStmt:
					if !inLoop(x) {
						return true
					}
					if e := statsPrefix(info, x.X, statsType); e != nil {
						pass.Reportf(x.Pos(),
							"write through cache.Stats inside a column kernel loop: accumulate in locals and flush once per batch")
					}
				}
				return true
			})
		}
	}
}

// isColumnMethod reports whether fd is a method of a column kernel: its
// receiver's pointer type has both a Batch and an Outcomes method.
func isColumnMethod(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := types.Unalias(t).(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	return ms.Lookup(fn.Pkg(), "Batch") != nil && ms.Lookup(fn.Pkg(), "Outcomes") != nil
}

// cacheStatsType resolves the module's cache.Stats named type (nil when
// the module has no internal/cache package — then the rule is vacuous).
func cacheStatsType(mod *Module) *types.Named {
	pkg := mod.Base(mod.Path + "/internal/cache")
	if pkg == nil {
		return nil
	}
	obj, ok := pkg.Scope().Lookup("Stats").(*types.TypeName)
	if !ok {
		return nil
	}
	return namedOf(obj.Type())
}

// isStatsMethod reports whether fn is a method whose receiver is
// cache.Stats (by value or pointer).
func isStatsMethod(fn *types.Func, stats *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named := namedOf(recv)
	return named != nil && named.Obj() == stats.Obj()
}

// statsPrefix returns the shortest prefix of assignable expression e
// whose static type is cache.Stats ("c.stats" in "c.stats.Hits"), or nil
// when no prefix has that type. The blank identifier never matches.
func statsPrefix(info *types.Info, e ast.Expr, stats *types.Named) ast.Expr {
	for {
		if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
			return nil
		}
		if tv, ok := info.Types[e]; ok {
			if named := namedOf(tv.Type); named != nil && named.Obj() == stats.Obj() {
				return e
			}
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
