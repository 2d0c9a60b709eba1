package analysis

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
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path    string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Pragmas []*Pragma
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct {
		Err string
	}
}

// exportCatalog maps import paths to compiled export-data files, filled
// from `go list -export` output and extended on demand (the analysistest
// fixture loader asks for stdlib packages lazily).  All lookups are
// offline: export data comes from the local build cache.
type exportCatalog struct {
	dir string // directory to run `go list` in (must be inside the module)

	mu sync.Mutex
	m  map[string]string
}

func newExportCatalog(dir string) *exportCatalog {
	return &exportCatalog{dir: dir, m: make(map[string]string)}
}

func (c *exportCatalog) add(p listPkg) {
	if p.Export == "" {
		return
	}
	c.mu.Lock()
	c.m[p.ImportPath] = p.Export
	c.mu.Unlock()
}

// lookup satisfies the go/importer gc lookup contract: it returns a
// reader over the export data for path, shelling out to `go list
// -export` for paths (typically stdlib) not seen yet.
func (c *exportCatalog) lookup(path string) (io.ReadCloser, error) {
	c.mu.Lock()
	file, ok := c.m[path]
	c.mu.Unlock()
	if !ok {
		pkgs, err := goList(c.dir, "-export", "-json", path)
		if err != nil {
			return nil, fmt.Errorf("resolving import %q: %w", path, err)
		}
		for _, p := range pkgs {
			c.add(p)
		}
		c.mu.Lock()
		file, ok = c.m[path]
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
	}
	return os.Open(file)
}

// goList runs `go list` with the given arguments in dir and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadPackages loads and type-checks the packages matched by patterns
// (relative to dir), parsing the matched packages from source and
// importing their dependencies from compiled export data, so the whole
// load is offline and needs nothing beyond the go toolchain.  Test
// files are not loaded: the suite guards production invariants.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-export", "-deps", "-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	catalog := newExportCatalog(dir)
	var targets []listPkg
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		catalog.add(p)
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", catalog.lookup)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := checkSource(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkSource parses the named files and type-checks them as one
// package with the given importer.
func checkSource(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	var pragmas []*Pragma
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", full, err)
		}
		files = append(files, f)
		pragmas = append(pragmas, filePragmas(fset, f)...)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:    path,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Pragmas: pragmas,
	}, nil
}

// fixtureImporter resolves imports for analysistest fixtures: packages
// present under the fixture source root are type-checked from source
// (so fixtures can stub icpic3 packages with minimal doubles), anything
// else comes from export data via the catalog.
type fixtureImporter struct {
	srcRoot string
	fset    *token.FileSet
	gc      types.Importer
	pkgs    map[string]*Package
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg.Types, nil
	}
	dir := filepath.Join(im.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := loadFixtureDir(im, path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.gc.Import(path)
}

func loadFixtureDir(im *fixtureImporter, path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture package %s: no .go files in %s", path, dir)
	}
	pkg, err := checkSource(im.fset, im, path, dir, names)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// LoadFixture loads one fixture package rooted at srcRoot (an
// analysistest `testdata/src` directory) by import path.  Imports are
// resolved testdata-first, then from export data, so fixtures may stub
// real icpic3 packages or import the standard library.
func LoadFixture(srcRoot, path string) (*Package, error) {
	fset := token.NewFileSet()
	im := &fixtureImporter{
		srcRoot: srcRoot,
		fset:    fset,
		pkgs:    make(map[string]*Package),
	}
	im.gc = importer.ForCompiler(fset, "gc", newExportCatalog(srcRoot).lookup)
	dir := filepath.Join(srcRoot, filepath.FromSlash(path))
	return loadFixtureDir(im, path, dir)
}
