package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load enumerates the packages matching patterns and their dependencies
// with `go list -deps -export`, which lists every package after the ones
// it imports. Walking that list once, it parses the non-test sources of
// each module package (comments included, so directive comments are
// visible to analyzers) and type-checks it exactly once; standard-library
// imports are read from the export data the local toolchain builds, so
// loading needs no network. Only the packages matching patterns are
// returned, and a module package they import is the one returned for it.
//
// dir is the directory to run `go list` in ("" for the current one).
func Load(dir string, patterns ...string) ([]*Package, *token.FileSet, error) {
	return load(dir, patterns, "")
}

// LoadDir loads the package in dir, which may sit under a testdata
// directory, through the same path as Load, but type-checks it as
// "fixture/<base of dir>". Fixture tests use it for testdata packages that
// are not part of the module proper.
func LoadDir(dir string) (*Package, *token.FileSet, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgs, fset, err := load(abs, []string{abs}, "fixture/"+filepath.Base(abs))
	if err == nil && len(pkgs) != 1 {
		err = fmt.Errorf("vet: no Go package in %s", abs)
	}
	if err != nil {
		return nil, nil, err
	}
	return pkgs[0], fset, nil
}

// load is Load, with the matched packages type-checked under rootPath
// when it is non-empty.
func load(dir string, patterns []string, rootPath string) ([]*Package, *token.FileSet, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("vet: go list %v: %v\n%s", patterns, err, errb.String())
	}

	fset := token.NewFileSet()
	// Module packages resolve to the ones this load has already checked,
	// every other (standard-library) import to its export data.
	checked := make(map[string]*types.Package)
	exports := make(map[string]string)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("vet: no export data for %q", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	var pkgs []*Package
	for dec := json.NewDecoder(&out); dec.More(); {
		var m listedPackage
		if err := dec.Decode(&m); err != nil {
			return nil, nil, fmt.Errorf("vet: decode go list output: %w", err)
		}
		exports[m.ImportPath] = m.Export
		if m.Standard || len(m.GoFiles) == 0 {
			continue
		}
		path := m.ImportPath
		if rootPath != "" && !m.DepOnly {
			path = rootPath
		}
		pkg, err := checkPackage(fset, imp, m.Dir, path, m.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		checked[m.ImportPath] = pkg.Types
		if !m.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, fset, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func checkPackage(fset *token.FileSet, imp types.Importer, dir, importPath string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-check %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
