package edbvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// stdIfaceMethods are the methods of standard interfaces a type can
// satisfy without the module ever naming the interface (fmt finds
// String by a type assertion, errors.Is and As find Unwrap, and so
// on): error, its Unwrap, fmt.Stringer, json.Marshaler, io.Reader,
// io.Writer, io.Closer, io.ByteReader, http.Handler, sort.Interface and
// types.Importer.
var stdIfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "MarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "ReadByte": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Import": true,
}

// checkUnused reports exported identifiers under internal/ that only
// their own package's tests reach: a package-level func, type, const or
// var, or a method, that no non-test file in the module uses and no
// other package's test file names. Uses come from the type checker, so
// the declaring package and every command, example and benchmark
// driver count as referrers. Test files are only parsed: a test in
// another package names a package-level identifier as alias.Name
// through an import of the declaring package, and names a method by
// any .Name selector. A method sharing its name with an interface
// method is exempt, since a call through the interface does not name
// the concrete method.
func checkUnused(root, module string, pkgs []*Package) ([]Finding, error) {
	used := make(map[types.Object]bool)
	ifaceMethods := make(map[string]bool)
	names := make(map[string]string) // import path -> package name
	for _, p := range pkgs {
		names[p.Path] = p.Types.Name()
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		for _, tv := range p.Info.Types {
			addIfaceMethods(ifaceMethods, tv.Type)
		}
	}
	tests, err := parseTestRefs(root, module, names)
	if err != nil {
		return nil, err
	}

	var out []Finding
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, module+"/internal/") {
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(p.Path, module+"/")))
		report := func(node ast.Node, id *ast.Ident, kind string) {
			if used[p.Info.Defs[id]] || p.allowed("unused", node) {
				return
			}
			if kind == "method" {
				if stdIfaceMethods[id.Name] || ifaceMethods[id.Name] || tests.selectedOutside(id.Name, dir) {
					return
				}
			} else if tests.qualified[p.Path][id.Name] {
				return
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(id.Pos()),
				Check: "unused",
				Msg: "exported " + kind + " " + id.Name + " has no use outside its own package's tests;" +
					" delete it, or keep it with //edbvet:allow unused -- <reason>",
			})
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv != nil {
						report(d, d.Name, "method")
					} else {
						report(d, d.Name, "func")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var node ast.Node = spec
						if len(d.Specs) == 1 {
							node = d
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								report(node, s.Name, "type")
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									report(node, id, d.Tok.String())
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// addIfaceMethods adds the method names of t to set when t is an
// interface.
func addIfaceMethods(set map[string]bool, t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		set[it.Method(i).Name()] = true
	}
}

// testRefs is what the module's test files name: qualified[path][name]
// for alias.Name selectors through an import of path by a test outside
// path's directory, and selectors[name] for the directories whose tests
// select .name on anything.
type testRefs struct {
	qualified map[string]map[string]bool
	selectors map[string]map[string]bool
}

// selectedOutside reports whether a test outside dir selects .name.
func (r *testRefs) selectedOutside(name, dir string) bool {
	for d := range r.selectors[name] {
		if d != dir {
			return true
		}
	}
	return false
}

// parseTestRefs parses every _test.go file under root (skipping dot
// directories, testdata and vendor) and records what each names.
// names maps the module's import paths to their package names, the
// default alias of an import.
func parseTestRefs(root, module string, names map[string]string) (*testRefs, error) {
	refs := &testRefs{
		qualified: make(map[string]map[string]bool),
		selectors: make(map[string]map[string]bool),
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		aliases := make(map[string]string) // alias -> import path
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			name, ok := names[ipath]
			if !ok || filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(ipath, module))) == dir {
				continue // not a module package, or this test's own
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			aliases[name] = ipath
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if refs.selectors[name] == nil {
				refs.selectors[name] = make(map[string]bool)
			}
			refs.selectors[name][dir] = true
			if x, ok := sel.X.(*ast.Ident); ok {
				if ipath, ok := aliases[x.Name]; ok {
					if refs.qualified[ipath] == nil {
						refs.qualified[ipath] = make(map[string]bool)
					}
					refs.qualified[ipath][name] = true
				}
			}
			return true
		})
		return nil
	})
	return refs, err
}
