// Package loading for wfvet: go/parser + go/types with a module-aware
// importer, no dependencies outside the standard library. Imports inside
// this module are resolved by mapping the import path onto the module
// directory tree and type-checking the target from source (memoized);
// standard-library imports are delegated to go/importer's source
// importer. go.mod stays dependency-free: the module imports nothing
// else, so those two cases are exhaustive.
package analysis

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

// Package is one type-checked unit: a package's compiled files plus, for
// the primary unit of a directory, its in-package _test.go files.
// External test packages (package foo_test) load as their own unit.
type Package struct {
	// PkgPath is the unit's import path (the directory's path within the
	// module; external test units carry a ".test" suffix for display).
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Sources retains raw file contents by filename, for pragma layout
	// checks.
	Sources map[string]string
}

// Loader loads and type-checks packages of one module.
type Loader struct {
	// Root is the module root directory (where go.mod lives); Module the
	// module path it declares.
	Root   string
	Module string

	fset    *token.FileSet
	std     types.ImporterFrom
	imports map[string]*types.Package // memoized import units (no test files)
	loading map[string]bool           // import-cycle detection
	sources map[string]string         // filename → content, shared across units
}

// NewLoader locates the module containing startDir (walking up to the
// nearest go.mod) and returns a loader for it.
func NewLoader(startDir string) (*Loader, error) {
	dir, err := filepath.Abs(startDir)
	if err != nil {
		return nil, err
	}
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: %s/go.mod declares no module path", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  module,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		imports: make(map[string]*types.Package),
		loading: make(map[string]bool),
		sources: make(map[string]string),
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from the module tree, everything else goes to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importModule(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

// pathFor maps a directory inside the module to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.Module)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// importModule type-checks a module package for import purposes (compiled
// files only, memoized, cycle-checked).
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer func() { delete(l.loading, path) }()

	files, _, err := l.parseDir(l.dirFor(path))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", path)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.imports[path] = pkg
	return pkg, nil
}

// check type-checks one set of parsed files as a package.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return pkg, info, nil
}

// parseDir parses a directory's Go files, split into compiled files and
// test files. Files are parsed once and cached in the shared FileSet;
// filenames are returned sorted so downstream behavior never depends on
// readdir order.
func (l *Loader) parseDir(dir string) (compiled, tests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Skip files the build excludes on this platform (a _amd64.go
		// suffix, a //go:build line), as the compiler does: per-platform
		// files declare the same names.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, ok := l.sources[full]
		if !ok {
			data, err := os.ReadFile(full)
			if err != nil {
				return nil, nil, err
			}
			src = string(data)
			l.sources[full] = src
		}
		file, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, file)
		} else {
			compiled = append(compiled, file)
		}
	}
	return compiled, tests, nil
}

// LoadDir loads the analyzable units of one directory: the primary
// package (compiled files plus in-package test files, type-checked
// together) and, when present, the external test package. Directories
// with no Go files yield no units and no error.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	compiled, tests, err := l.parseDir(l.dirFor(path))
	if err != nil {
		return nil, err
	}
	var inPkg, external []*ast.File
	for _, f := range tests {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var units []*Package
	if files := append(append([]*ast.File{}, compiled...), inPkg...); len(files) > 0 {
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		units = append(units, l.newPackage(path, dir, files, pkg, info))
	}
	if len(external) > 0 {
		pkg, info, err := l.check(path+".test", external)
		if err != nil {
			return nil, err
		}
		units = append(units, l.newPackage(path+".test", dir, external, pkg, info))
	}
	return units, nil
}

func (l *Loader) newPackage(path, dir string, files []*ast.File, pkg *types.Package, info *types.Info) *Package {
	return &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   pkg,
		Info:    info,
		Sources: l.sources,
	}
}
