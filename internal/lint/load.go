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
)

// Package is one parsed, type-checked package with everything a Rule needs.
type Package struct {
	// Path is the logical import path ("specdb/internal/engine"). Fixture
	// packages under testdata/src are loaded with the path they mimic, so
	// path-scoped rules apply to them exactly as to the real tree.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module without any
// dependency beyond the standard library: module-internal imports are
// resolved by mapping import paths onto directories under the module root,
// and standard-library imports are type-checked from source via go/importer.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std  types.Importer
	pkgs map[string]*Package       // checked module packages, by import path
	deps map[string]*types.Package // every resolved import, by path
	busy map[string]bool           // import-cycle guard
}

// NewLoader builds a loader for the module rooted at modRoot (the directory
// containing go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: modRoot,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		deps:    map[string]*types.Package{},
		busy:    map[string]bool{},
	}, nil
}

// Import implements types.Importer over module-internal and stdlib paths.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.deps[path]; ok {
		return p, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.deps[path] = p
	return p, nil
}

// Load type-checks the module package with the given import path (cached).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	dir := l.ModRoot
	if path != l.ModPath {
		rel := strings.TrimPrefix(path, l.ModPath+"/")
		dir = filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	}
	l.busy[path] = true
	p, err := l.check(path, dir)
	delete(l.busy, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.deps[path] = p.Pkg
	return p, nil
}

// LoadDir type-checks the package in dir under the given logical import
// path without touching the cache — the entry point for testdata fixtures,
// which may mimic real package paths.
func (l *Loader) LoadDir(dir, logicalPath string) (*Package, error) {
	return l.check(logicalPath, dir)
}

// check parses every non-test .go file in dir and type-checks the package.
func (l *Loader) check(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// ModulePackages walks the module tree and returns the import paths of every
// package, sorted. testdata directories, hidden directories, and dependency-
// free scaffolding (.git, .github) are skipped, mirroring the go tool.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	// WalkDir visits files of one directory contiguously, but dedupe again
	// after sorting in case of interleaving.
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// LoadModule loads every package reported by ModulePackages.
func (l *Loader) LoadModule() ([]*Package, error) {
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}

// pathIn reports whether pkg's logical path is the given module-relative
// prefix or below it ("" means the module root package itself).
func (p *Package) pathIn(rel string) bool {
	full := p.fullPath(rel)
	return p.Path == full || strings.HasPrefix(p.Path, full+"/")
}

func (p *Package) fullPath(rel string) string {
	mod := moduleOf(p.Path)
	if rel == "" {
		return mod
	}
	return mod + "/" + rel
}

// moduleOf recovers the module path from a logical package path. All logical
// paths in this repository start with the module path's first segment.
func moduleOf(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i]
	}
	return path
}

// isToolOrDemo reports whether the package is CLI, example or test
// scaffolding (cmd/, examples/, and internal/golden, which only _test.go
// files import), which the engine invariants do not govern.
func (p *Package) isToolOrDemo() bool {
	return p.pathIn("cmd") || p.pathIn("examples") || p.pathIn("internal/golden")
}
