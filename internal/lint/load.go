// Package lint is acrlint: a repo-specific static-analysis suite that
// mechanically enforces the contracts this module otherwise keeps only by
// convention — component memo keys in internal/perf must cover exactly the
// configuration fields their terms read, IR content hashes must cover every
// simulation-relevant field, unit-suffixed quantities must not mix, engine
// cache maps must be touched only under their mutex, floats must not be
// compared with ==, and exported context-taking entry points must thread
// their context through.
//
// The suite is built on the standard library alone (go/parser, go/types,
// go/importer); it has no golang.org/x/tools dependency, so it runs in the
// same sandbox as the rest of the module. The loader below parses and
// typechecks module packages in dependency order (independent packages in
// parallel), resolving standard-library imports through the source
// importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one typechecked module package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Program is a set of typechecked packages plus the shared indexes the
// analyzers use to walk call graphs across package boundaries.
type Program struct {
	// Fset positions every loaded file, including source-imported
	// standard-library files.
	Fset *token.FileSet
	// Packages are the packages under analysis (the pattern matches),
	// sorted by import path.
	Packages []*Package

	// all additionally holds the module-internal dependencies a partial
	// pattern pulled in: analyzers only run over Packages, but call-graph
	// expansion and inModule must see the whole loaded module, or a
	// single-package run would misread fields reached through helper
	// methods in other packages.
	all    []*Package
	byPath map[string]*Package

	declOnce sync.Once
	decls    map[*types.Func]funcDecl
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// FuncDecl returns the syntax and owning package of fn when fn is declared
// in one of the program's packages, or nil syntax otherwise (standard
// library, interface methods).
func (p *Program) FuncDecl(fn *types.Func) (*ast.FuncDecl, *Package) {
	p.declOnce.Do(func() {
		p.decls = make(map[*types.Func]funcDecl)
		for _, pkg := range p.all {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Name == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						p.decls[fn] = funcDecl{fd, pkg}
					}
				}
			}
		}
	})
	fd, ok := p.decls[fn]
	if !ok {
		return nil, nil
	}
	return fd.decl, fd.pkg
}

// Load parses and typechecks the module rooted at moduleDir, restricted to
// the given package patterns ("./..." for everything, or "./internal/perf"
// style directory paths). The module path is read from go.mod.
func Load(moduleDir string, patterns []string) (*Program, error) {
	modPath, err := modulePath(moduleDir)
	if err != nil {
		return nil, err
	}
	return LoadPackages(moduleDir, modPath, patterns)
}

// LoadPackages is Load with an explicit module path, which lets the
// analyzer self-tests load testdata trees that carry no go.mod.
func LoadPackages(moduleDir, modPath string, patterns []string) (*Program, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:       token.NewFileSet(),
		moduleDir:  abs,
		modulePath: modPath,
		entries:    make(map[string]*loadEntry),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := l.resolvePatterns(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}

	var wg sync.WaitGroup
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			pkgs[i], errs[i] = l.load(l.importPathFor(dir))
		}(i, dir)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	prog := &Program{Fset: l.fset, byPath: make(map[string]*Package)}
	// Index everything the load pulled in — pattern matches plus their
	// module-internal dependencies.
	for _, e := range l.entries {
		if e.pkg != nil && prog.byPath[e.pkg.Path] == nil {
			prog.byPath[e.pkg.Path] = e.pkg
			prog.all = append(prog.all, e.pkg)
		}
	}
	sort.Slice(prog.all, func(i, j int) bool {
		return prog.all[i].Path < prog.all[j].Path
	})
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg == nil || seen[pkg.Path] {
			continue
		}
		seen[pkg.Path] = true
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	return prog, nil
}

// modulePath reads the module directive from go.mod.
func modulePath(moduleDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
}

type loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string

	mu      sync.Mutex
	entries map[string]*loadEntry

	stdMu sync.Mutex
	std   types.Importer
}

type loadEntry struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// resolvePatterns expands package patterns into package directories.
func (l *loader) resolvePatterns(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all" || pat == l.modulePath+"/...":
			if err := walkGoDirs(l.moduleDir, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := l.dirForPattern(strings.TrimSuffix(pat, "/..."))
			if err := walkGoDirs(root, add); err != nil {
				return nil, err
			}
		default:
			dir := l.dirForPattern(pat)
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no Go files in %s (pattern %q)", dir, pat)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirForPattern maps "./x", "x" or "<module>/x" to a directory.
func (l *loader) dirForPattern(pat string) string {
	if rest, ok := strings.CutPrefix(pat, l.modulePath); ok {
		pat = "." + rest
	}
	return filepath.Join(l.moduleDir, filepath.FromSlash(pat))
}

// importPathFor maps a package directory back to its import path.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// walkGoDirs calls add for every directory under root that holds Go files,
// skipping hidden directories and testdata trees (the go tool's pattern
// semantics).
func walkGoDirs(root string, add func(dir string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

// hasGoFiles reports whether dir directly holds at least one non-test Go
// source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load returns the typechecked package for the import path, sharing one
// in-flight check per path across concurrent callers.
func (l *loader) load(path string) (*Package, error) {
	l.mu.Lock()
	if e, ok := l.entries[path]; ok {
		l.mu.Unlock()
		<-e.done
		return e.pkg, e.err
	}
	e := &loadEntry{done: make(chan struct{})}
	l.entries[path] = e
	l.mu.Unlock()

	e.pkg, e.err = l.check(path)
	close(e.done)
	return e.pkg, e.err
}

// check parses and typechecks one package, preloading its module-internal
// imports concurrently first so the type checker's importer only performs
// map lookups for them.
func (l *loader) check(path string) (*Package, error) {
	dir := l.dirForPattern(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, ent := range ents {
		if !isSourceFile(ent.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, ent.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if ignoredByBuildTag(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	// Preload module-internal imports in parallel.
	var wg sync.WaitGroup
	for _, f := range files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == l.modulePath || strings.HasPrefix(ip, l.modulePath+"/") {
				wg.Add(1)
				go func(ip string) {
					defer wg.Done()
					l.load(ip) //nolint:errcheck // surfaced by Import below
				}(ip)
			}
		}
	}
	wg.Wait()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error: func(err error) {
			typeErrs = append(typeErrs, err)
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// importPkg resolves one import for the type checker: module-internal
// packages from the loader's own results, everything else (the standard
// library) through the source importer.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	// The source importer is not documented as safe for concurrent use;
	// serialise it. Its internal cache makes repeat imports cheap.
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ignoredByBuildTag reports whether a file opts out of the build via a
// constraint before its package clause (the only constraint this module
// uses is `ignore`).
func ignoredByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, "go:build") && strings.Contains(text, "ignore") {
				return true
			}
			if strings.HasPrefix(text, "+build") && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}
