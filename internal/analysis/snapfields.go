package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SnapFields turns the checkpoint layer's byte-identity tests into a
// compile-time guarantee: for every type implementing the
// checkpoint.Snapshotter contract, each struct field that the
// simulation writes must be referenced somewhere in the type's
// Snapshot/Restore bodies — otherwise a branch restored from a
// checkpoint silently diverges from the parent run.
//
// The contract is matched structurally, not by import path: a method
// whose name starts with Snapshot/snapshot taking a *...Encoder first
// parameter, paired with a Restore/restore taking a *...Decoder and
// returning error. That shape covers the exported Snapshotter
// implementations and system.App's unexported snapshot/restore pair,
// and lets fixtures declare a local Encoder/Decoder instead of
// importing the real package.
//
// "Written during simulation" means a selector assignment, IncDec, or
// compound assignment anywhere in the package outside contract-method
// bodies and outside constructors (package-level functions whose
// results include the type). Composite-literal initialization is
// configuration, not simulation state, and does not count. Promoted
// contract methods cover the embedded field that supplies them.
//
// Scratch fields that are deliberately rebuilt instead of serialized
// are waived with "//vulcan:nosnap <reason>" on the field declaration
// (or the line above); the reason is mandatory.
var SnapFields = &Analyzer{
	Name: "snapfields",
	Doc: "require every simulation-written field of a Snapshotter to be " +
		"referenced in Snapshot/Restore; waive with //vulcan:nosnap <reason>",
	Applies: inSimTree,
	Run:     runSnapFields,
}

func runSnapFields(pass *Pass) error {
	// Map every declared function to its object, for body lookups.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	// Field registry: every field of every named struct in this package,
	// so a write can be attributed to its owning type.
	type fieldOwner struct {
		typeName string
	}
	owners := make(map[*types.Var]fieldOwner)
	scope := pass.Pkg.Scope()
	var snapTypes []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			owners[st.Field(i)] = fieldOwner{typeName: name}
		}
		snapTypes = append(snapTypes, named)
	}

	// For each struct type, find its contract methods (including ones
	// promoted from embedded fields).
	type contract struct {
		named    *types.Named
		methods  []*types.Func // directly-declared contract methods
		embedded []*types.Var  // embedded fields supplying promoted ones
		hasSnap  bool
		hasRest  bool
	}
	var contracts []*contract
	contractBodies := make(map[*ast.FuncDecl]bool)
	for _, named := range snapTypes {
		c := &contract{named: named}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			sel := mset.At(i)
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			kind := contractKind(fn)
			if kind == snapNone {
				continue
			}
			if kind == snapEncode {
				c.hasSnap = true
			} else {
				c.hasRest = true
			}
			idx := sel.Index()
			if len(idx) == 1 {
				c.methods = append(c.methods, fn)
			} else {
				// Promoted: the first index hop names the embedded field
				// that carries the state the method serializes.
				st := named.Underlying().(*types.Struct)
				c.embedded = append(c.embedded, st.Field(idx[0]))
			}
		}
		if c.hasSnap && c.hasRest {
			contracts = append(contracts, c)
			for _, fn := range c.methods {
				if fd := decls[fn]; fd != nil {
					contractBodies[fd] = true
				}
			}
		}
	}
	if len(contracts) == 0 {
		return nil
	}

	// Coverage: every field referenced by selector inside a contract
	// body counts as encoded (delegation like e.shadows.Snapshot(enc)
	// and nested reads like a.stats.Moved both mark their fields).
	covered := make(map[*types.Var]bool)
	for fd := range contractBodies {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				covered[v] = true
			}
			return true
		})
	}

	// Writes: selector mutations anywhere else in the package, skipping
	// constructor functions for the written type.
	type writeSite struct{ pos token.Pos }
	written := make(map[*types.Var]writeSite)
	noteWrite := func(fd *ast.FuncDecl, e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					if o, tracked := owners[v]; tracked && !isConstructorFor(pass, fd, o.typeName) {
						if _, dup := written[v]; !dup {
							written[v] = writeSite{pos: x.Sel.Pos()}
						}
					}
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || contractBodies[fd] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						noteWrite(fd, lhs)
					}
				case *ast.IncDecStmt:
					noteWrite(fd, n.X)
				case *ast.UnaryExpr:
					// &x.f handed out as a pointer is a write vector
					// (the callee mutates through it).
					if n.Op == token.AND {
						noteWrite(fd, n.X)
					}
				}
				return true
			})
		}
	}

	waivers := directiveLines(pass, "nosnap")
	for _, c := range contracts {
		embedded := make(map[*types.Var]bool, len(c.embedded))
		for _, f := range c.embedded {
			embedded[f] = true
		}
		st := c.named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if covered[f] || embedded[f] {
				continue
			}
			w, isWritten := written[f]
			if !isWritten {
				continue // constructor-set configuration, nothing to lose
			}
			reason, waived := waiverAt(pass, waivers, f.Pos())
			if waived && reason != "" {
				continue
			}
			wp := pass.Fset.Position(w.pos)
			msg := "field " + c.named.Obj().Name() + "." + f.Name() +
				" is written during simulation (" + shortPos(wp.Filename, wp.Line) +
				") but never referenced in Snapshot/Restore; encode it or waive with //vulcan:nosnap <reason>"
			if waived {
				msg = "field " + c.named.Obj().Name() + "." + f.Name() +
					" carries //vulcan:nosnap without a reason; the waiver needs one"
			}
			pass.Reportf(f.Pos(), "%s", msg)
		}
	}
	return nil
}

type snapKind int

const (
	snapNone snapKind = iota
	snapEncode
	snapDecode
)

// contractKind classifies fn as a Snapshot-like method (first parameter
// *...Encoder, no results), a Restore-like method (first parameter
// *...Decoder, returns error), or neither.
func contractKind(fn *types.Func) snapKind {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return snapNone
	}
	name := strings.ToLower(fn.Name())
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return snapNone
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return snapNone
	}
	switch {
	case strings.HasPrefix(name, "snapshot"):
		if named.Obj().Name() == "Encoder" && sig.Results().Len() == 0 {
			return snapEncode
		}
	case strings.HasPrefix(name, "restore"):
		if named.Obj().Name() == "Decoder" && sig.Results().Len() == 1 &&
			types.TypeString(sig.Results().At(0).Type(), nil) == "error" {
			return snapDecode
		}
	}
	return snapNone
}

// isConstructorFor reports whether fd is a package-level function whose
// results include typeName (or a pointer to it) — the construction
// phase, where field initialization is configuration rather than
// simulation state.
func isConstructorFor(pass *Pass, fd *ast.FuncDecl, typeName string) bool {
	if fd.Recv != nil || fd.Type.Results == nil {
		return false
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		// Unwrap pointers and collections: a function returning *T,
		// []T, []*T, or map[K]*T constructs T.
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			case *types.Map:
				t = u.Elem()
				continue
			}
			break
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() == pass.Pkg && n.Obj().Name() == typeName {
			return true
		}
	}
	return false
}

// shortPos renders file:line with the directory stripped.
func shortPos(filename string, line int) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		filename = filename[i+1:]
	}
	return filename + ":" + strconv.Itoa(line)
}
