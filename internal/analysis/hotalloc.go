package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc enforces the zero-alloc contract on annotated hot paths. A
// function marked "//vulcan:hotpath" in its doc comment is a root; the
// analyzer also follows the intra-package static call graph, so every
// same-package function a root reaches inherits the contract. Inside
// that hot set it flags the constructs that heap-allocate in practice:
//
//   - composite literals that escape (&T{...}) and slice/map literals
//   - make, new
//   - append growth on a slice local to the function (appends into a
//     pooled field or a caller-owned parameter are the sanctioned
//     reuse idiom and stay legal)
//   - string concatenation
//   - func literals that capture enclosing variables (closure header
//     allocates per call)
//   - calls into fmt and errors (interface boxing plus formatting)
//   - explicit conversions to interface types (boxing)
//   - range over a map (hidden iterator allocation plus maporder risk)
//
// Allocations that only feed a panic call are exempt: a panicking hot
// path is already dead. "//vulcan:allowalloc <reason>" on the flagged
// line (or the line above) waives one finding; the reason is mandatory,
// and a reasonless waiver converts into its own finding.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag heap-allocating constructs in //vulcan:hotpath functions and " +
		"everything they reach in-package; waive with //vulcan:allowalloc <reason>",
	Applies: inSimTree,
	Run:     runHotAlloc,
}

// hotFunc is one function in the hot set: a root carries its own
// directive, a reached function records which root pulled it in.
type hotFunc struct {
	decl *ast.FuncDecl
	via  string // root function name; == own name for roots
}

func runHotAlloc(pass *Pass) error {
	// Index every declared function and find the annotated roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func
	var roots []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = fd
			order = append(order, obj)
			if funcDirective(fd, "hotpath") {
				roots = append(roots, obj)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Intra-package call graph: an edge per statically-resolved call to
	// a function declared in this package. Method values and interface
	// dispatch resolve to the concrete method when the type checker can
	// see it; dynamic dispatch is out of scope for a lint this size.
	edges := make(map[*types.Func][]*types.Func)
	for _, caller := range order {
		body := decls[caller].Body
		seen := make(map[*types.Func]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calledFunc(pass, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, declared := decls[callee]; declared {
				seen[callee] = true
				edges[caller] = append(edges[caller], callee)
			}
			return true
		})
	}

	// BFS from each root in source order; the first root to reach a
	// function owns the attribution in its diagnostics.
	hot := make(map[*types.Func]*hotFunc)
	for _, root := range roots {
		if hot[root] == nil {
			hot[root] = &hotFunc{decl: decls[root], via: root.Name()}
		}
		queue := []*types.Func{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, callee := range edges[cur] {
				if hot[callee] != nil {
					continue
				}
				hot[callee] = &hotFunc{decl: decls[callee], via: root.Name()}
				queue = append(queue, callee)
			}
		}
	}

	waivers := directiveLines(pass, "allowalloc")
	var hotOrder []*types.Func
	for _, fn := range order {
		if hot[fn] != nil {
			hotOrder = append(hotOrder, fn)
		}
	}
	sort.Slice(hotOrder, func(i, j int) bool {
		return hot[hotOrder[i]].decl.Pos() < hot[hotOrder[j]].decl.Pos()
	})
	for _, fn := range hotOrder {
		checkHotFunc(pass, fn, hot[fn], waivers)
	}
	return nil
}

// calledFunc resolves a call expression to the *types.Func it invokes
// statically, or nil for builtins, conversions, and dynamic calls. A
// call through an instantiation of a generic function or of a generic
// type's method resolves to the declared generic one.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var f *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		f, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if f == nil {
		return nil
	}
	return f.Origin()
}

// checkHotFunc reports every allocating construct in one hot function.
func checkHotFunc(pass *Pass, fn *types.Func, hf *hotFunc, waivers map[string]map[int]string) {
	body := hf.decl.Body

	// Allocations whose only consumer is a panic argument are exempt:
	// the path is already aborting the run.
	var panicRanges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "panic" {
				panicRanges = append(panicRanges, [2]token.Pos{call.Pos(), call.End()})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	where := "in //vulcan:hotpath function " + fn.Name()
	if hf.via != fn.Name() {
		where = "in " + fn.Name() + ", reachable from //vulcan:hotpath root " + hf.via
	}
	report := func(pos token.Pos, what string) {
		if inPanic(pos) {
			return
		}
		reason, waived := waiverAt(pass, waivers, pos)
		if waived && reason != "" {
			return
		}
		msg := what + " " + where
		if waived {
			msg += " (//vulcan:allowalloc needs a reason)"
		}
		pass.Reportf(pos, "%s", msg)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, hf.decl, n, report)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) && pass.ConstValue(n) == nil {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(n.Pos(), "range over a map allocates its iterator and randomizes order")
				}
			}
		case *ast.FuncLit:
			if names := capturedVars(pass, n); len(names) > 0 {
				report(n.Pos(), "func literal captures "+strings.Join(names, ", ")+" and allocates a closure")
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped allocation sources: make/new,
// append growth on fresh slices, fmt/errors calls, and explicit
// conversions to interface types.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, builtin := pass.TypesInfo.Uses[fun].(*types.Builtin); builtin {
			switch fun.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) == 0 {
					return
				}
				obj := rootObject(pass, call.Args[0])
				if obj != nil && fd.Body != nil &&
					obj.Pos() > fd.Body.Pos() && obj.Pos() < fd.Body.End() {
					report(call.Pos(), "append to function-local slice "+obj.Name()+" grows on the heap; reuse a pooled buffer")
				}
			}
			return
		}
		// Explicit conversion T(x) where T is an interface: boxing.
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			reportIfaceConversion(pass, call, tv.Type, report)
		}
	case *ast.SelectorExpr:
		switch pass.PkgNameOf(fun) {
		case "fmt":
			report(call.Pos(), "fmt."+fun.Sel.Name+" boxes its operands and formats through reflection")
		case "errors":
			report(call.Pos(), "errors."+fun.Sel.Name+" allocates a new error value")
		default:
			if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
				reportIfaceConversion(pass, call, tv.Type, report)
			}
		}
	}
}

// reportIfaceConversion flags an explicit conversion whose target is an
// interface type and whose operand is a concrete non-pointer value —
// the conversion boxes the value on the heap.
func reportIfaceConversion(pass *Pass, call *ast.CallExpr, target types.Type, report func(token.Pos, string)) {
	if !types.IsInterface(target) || len(call.Args) != 1 {
		return
	}
	src := pass.TypeOf(call.Args[0])
	if src == nil || types.IsInterface(src) {
		return
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	report(call.Pos(), "conversion to interface "+types.TypeString(target, types.RelativeTo(pass.Pkg))+" boxes the value")
}

// capturedVars lists the enclosing-function variables a func literal
// captures, in first-use order.
func capturedVars(pass *Pass, fl *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() <= fl.End() {
			return true // declared inside the literal
		}
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe, not a capture
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
