package edbvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// writerMethods are method names that append to an output stream or
// builder; calling one from inside a map-range loop emits in map
// iteration order, which Go randomizes.
var writerMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// checkMapOrder flags `for ... := range m` over a map whose body feeds
// an output sink (fmt print family, a writer/builder method, or any
// call handed a trace.Event — the tracer's emit, trace.Writer.Append):
// report, result and trace files must be byte-deterministic, so the
// keys have to be collected and sorted first. Loops that merely collect
// (append, assign, aggregate) are fine — that IS the sort-first idiom's
// first half.
func checkMapOrder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// A directive on the function waives its whole body.
			if p.allowed("maporder", fd) {
				continue
			}
			out = append(out, mapOrderInFunc(p, fd)...)
		}
	}
	return out
}

func mapOrderInFunc(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.Types[rs.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if p.allowed("maporder", rs) {
			return true
		}
		if at := findOutputCall(p, rs.Body); at != nil {
			out = append(out, Finding{
				Pos:   p.Fset.Position(rs.Pos()),
				Check: "maporder",
				Msg: "map iteration feeds output via " + at.name +
					" — iteration order is randomized; collect and sort the keys first",
			})
		}
		return true
	})
	return out
}

type outputCall struct{ name string }

// findOutputCall locates a print/write call anywhere inside body.
func findOutputCall(p *Package, body *ast.BlockStmt) *outputCall {
	var found *outputCall
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A trace event handed to a call is emitted; the builtin append
		// and conversions only collect.
		if tv := p.Info.Types[call.Fun]; !tv.IsBuiltin() && !tv.IsType() {
			for _, arg := range call.Args {
				if isTraceEvent(p.Info.TypeOf(arg)) {
					found = &outputCall{name: types.ExprString(call.Fun) + "(trace.Event)"}
					return false
				}
			}
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		// fmt.Print* / fmt.Fprint* / fmt.Sprint* by package of the
		// resolved function object.
		if obj, ok := p.Info.Uses[sel.Sel]; ok {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
					strings.HasPrefix(name, "Sprint")) {
				found = &outputCall{name: "fmt." + name}
				return false
			}
		}
		// Writer/builder methods by selection kind.
		if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && writerMethods[name] {
			found = &outputCall{name: "(" + s.Recv().String() + ")." + name}
			return false
		}
		return true
	})
	return found
}

// isTraceEvent reports whether t is internal/trace's Event.
func isTraceEvent(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Event" && n.Obj().Pkg() != nil &&
		strings.HasSuffix(n.Obj().Pkg().Path(), "internal/trace")
}
