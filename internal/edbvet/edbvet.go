// Package edbvet is this repository's custom vet pass suite, run by
// `make lint` alongside the patch-soundness lint. It enforces four
// repo-specific contracts that ordinary `go vet` cannot know about:
//
//   - obsvnil: exported pointer-receiver methods on the observability
//     handles (obsv.Tracer, obsv.Span, obsv.Metrics) must uphold the
//     nil-is-free contract — no receiver state may be touched before a
//     nil guard (see the package comment in internal/obsv).
//   - faultsite: fault.Site values must come from the registered
//     constants in internal/fault; a stray string literal typed as
//     fault.Site bypasses the chaos harness's site enumeration.
//   - maporder: ranging over a map while feeding report/result output
//     is a determinism hazard — collect the keys, sort, then emit.
//   - unused: an exported identifier under internal/ that no non-test
//     code in the module uses and no other package's test names is
//     code only its own tests reach — delete it (see unused.go).
//
// A finding can be suppressed with a directive comment on the
// offending declaration or the line above the offending statement:
//
//	//edbvet:allow <check> -- <reason>
//
// The suite is built on the standard library's go/ast + go/types only
// (no x/tools dependency): repository packages are loaded from source
// by a module-aware importer, and standard-library imports fall back
// to the stock source importer.
package edbvet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one vet violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String renders the finding in the conventional file:line: form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Msg)
}

// Package is one type-checked repository package.
type Package struct {
	Path  string // import path, e.g. "edb/internal/obsv"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allow[check] holds the file lines carrying an
	// `//edbvet:allow check` directive.
	allow map[string]map[token.Position]bool
}

// loader resolves imports: module-local paths from source under the
// repository root, everything else via the standard source importer.
type loader struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package
	errs   []string
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-local package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and _GOOS/_GOARCH
		// suffixes) for the host platform, else mutually exclusive files
		// like mmap_unix.go / mmap_other.go redeclare their symbols.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("edbvet: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.errs = append(l.errs, err.Error()) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		allow: collectDirectives(l.fset, files),
	}
	l.pkgs[path] = p
	return p, nil
}

// collectDirectives indexes `//edbvet:allow <check>` comments by the
// position (file, line) they appear on.
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[token.Position]bool {
	out := make(map[string]map[token.Position]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "edbvet:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "edbvet:allow"))
				check := rest
				if i := strings.Index(rest, "--"); i >= 0 {
					check = strings.TrimSpace(rest[:i])
				}
				check = strings.Fields(check + " ")[0]
				if check == "" {
					continue
				}
				if out[check] == nil {
					out[check] = make(map[token.Position]bool)
				}
				pos := fset.Position(c.Pos())
				out[check][token.Position{Filename: pos.Filename, Line: pos.Line}] = true
			}
		}
	}
	return out
}

// allowed reports whether a directive suppresses check at node: the
// directive may sit on the node's own line, the line directly above it,
// or (for declarations) anywhere in the doc comment — doc comments end
// on the line above the declaration, so "line above" covers them.
func (p *Package) allowed(check string, node ast.Node) bool {
	lines := p.allow[check]
	if len(lines) == 0 {
		return false
	}
	pos := p.Fset.Position(node.Pos())
	for d := 0; d <= 1; d++ {
		if lines[token.Position{Filename: pos.Filename, Line: pos.Line - d}] {
			return true
		}
	}
	return false
}

// moduleName reads the module path from root's go.mod.
func moduleName(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("edbvet: no module line in %s/go.mod", root)
}

// findPackageDirs walks root for directories holding non-test Go files.
// A directory's files and subdirectories interleave in the walk, so a
// directory is listed on its first file only.
func findPackageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
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
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// Run loads every package in the module rooted at root and applies the
// full check suite. Findings come back sorted by position.
func Run(root string) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
	}
	dirs, err := findPackageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		pkgs = append(pkgs, p)
	}

	var findings []Finding
	reg := registeredSites(pkgs)
	for _, p := range pkgs {
		findings = append(findings, checkObsvNil(p)...)
		findings = append(findings, checkFaultSite(p, reg)...)
		findings = append(findings, checkMapOrder(p)...)
	}
	unused, err := checkUnused(root, module, pkgs)
	if err != nil {
		return nil, err
	}
	findings = append(findings, unused...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Check < findings[j].Check
	})
	return findings, nil
}
