package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// ObsMetricsAnalyzer enforces the metrics-surface discipline on calls to
// the obs registry's registration methods (NewCounter, NewGaugeVec, ...):
//
//   - The metric name argument must be a package-level constant, so every
//     series name a binary can expose is greppable, documentable, and
//     stable for dashboards and smoke tests — never assembled inline.
//   - Each name constant is registered at exactly one call site per
//     package. The registry panics on a runtime duplicate; this catches
//     the same mistake at vet time, including across registries.
//   - Vec labels must be a composite literal of string constants and the
//     maxSeries bound a positive constant: label sets and cardinality
//     caps are part of the metric's declared shape, not runtime data.
//
// It also reports every call to expvar's registration functions
// (expvar.Publish, NewInt, ...): GET /metrics is the one live counter
// surface, and an expvar variable would be a second copy beside it.
// Mounting expvar.Handler() for the runtime's default vars is allowed.
var ObsMetricsAnalyzer = &Analyzer{
	Name: "obs-metrics",
	Doc:  "metric names must be package-level consts registered exactly once, with constant label sets and positive cardinality bounds; no expvar publication",
	Run:  runObsMetrics,
}

// obsRegisterMethods are the *obs.Registry methods that create series
// families, mapped to the argument indices of their labels and maxSeries
// parameters (-1 for the unlabeled constructors).
var obsRegisterMethods = map[string]struct{ labelsIdx, maxIdx int }{
	"NewCounter":      {-1, -1},
	"NewGauge":        {-1, -1},
	"NewGaugeFunc":    {-1, -1},
	"NewHistogram":    {-1, -1},
	"NewCounterVec":   {2, 3},
	"NewGaugeVec":     {2, 3},
	"NewHistogramVec": {3, 4},
}

// expvarPublishers are the expvar functions that register a variable.
var expvarPublishers = map[string]bool{
	"Publish": true, "NewInt": true, "NewFloat": true, "NewMap": true, "NewString": true,
}

func runObsMetrics(pass *Pass) {
	registry := obsRegistryType(pass.Module)
	info := pass.Pkg.Info
	// seen maps a metric name value to its first registration site in
	// this package.
	seen := map[string]token.Pos{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn != nil && expvarPublishers[fn.Name()] && isPkgFunc(fn, "expvar", fn.Name()) {
				pass.Reportf(call.Pos(),
					"expvar.%s publishes a second live metrics surface at /debug/vars: register an obs instrument and scrape it at /metrics instead",
					fn.Name())
				return true
			}
			if fn == nil || registry == nil || !isMethodOf(fn, registry) {
				return true
			}
			m, ok := obsRegisterMethods[fn.Name()]
			if !ok || len(call.Args) == 0 {
				return true
			}

			nameConst := pkgLevelConst(info, call.Args[0])
			if nameConst == nil || nameConst.Val().Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(),
					"metric name in Registry.%s is not a package-level const: declare the name as a const so the series is greppable and stable",
					fn.Name())
				return true
			}
			name := constant.StringVal(nameConst.Val())
			if first, dup := seen[name]; dup {
				pos := pass.Module.Fset.Position(first)
				pass.Reportf(call.Args[0].Pos(),
					"metric %q is already registered at %s:%d: register each name exactly once",
					name, pass.Module.RelPath(pos.Filename), pos.Line)
			} else {
				seen[name] = call.Args[0].Pos()
			}

			if m.labelsIdx < 0 || len(call.Args) <= m.maxIdx {
				return true
			}
			if !isConstStringSlice(info, call.Args[m.labelsIdx]) {
				pass.Reportf(call.Args[m.labelsIdx].Pos(),
					"labels of Registry.%s must be a composite literal of string constants: the label set is part of the metric's declared shape",
					fn.Name())
			}
			if v := constIntValue(info, call.Args[m.maxIdx]); v <= 0 {
				pass.Reportf(call.Args[m.maxIdx].Pos(),
					"maxSeries of Registry.%s must be a positive constant: the cardinality bound is part of the metric's declared shape",
					fn.Name())
			}
			return true
		})
	}
}

// obsRegistryType resolves the module's obs.Registry named type (nil when
// the module has no internal/obs package — then the rule is vacuous).
func obsRegistryType(mod *Module) *types.Named {
	pkg := mod.Base(mod.Path + "/internal/obs")
	if pkg == nil {
		return nil
	}
	obj, ok := pkg.Scope().Lookup("Registry").(*types.TypeName)
	if !ok {
		return nil
	}
	return namedOf(obj.Type())
}

// isMethodOf reports whether fn is a method whose receiver is the named
// type (by value or pointer).
func isMethodOf(fn *types.Func, named *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	r := namedOf(recv)
	return r != nil && r.Obj() == named.Obj()
}

// pkgLevelConst resolves e to the package-level constant it references,
// or nil for literals, locals, and non-constant expressions.
func pkgLevelConst(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() == nil || c.Parent() != c.Pkg().Scope() {
		return nil
	}
	return c
}

// isConstStringSlice reports whether e is a composite literal whose
// elements are all compile-time string constants.
func isConstStringSlice(info *types.Info, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range lit.Elts {
		tv, ok := info.Types[elt]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return false
		}
	}
	return true
}

// constIntValue returns e's compile-time integer value, or 0 when e is
// not an integer constant expression.
func constIntValue(info *types.Info, e ast.Expr) int64 {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0
	}
	v, _ := constant.Int64Val(tv.Value)
	return v
}
