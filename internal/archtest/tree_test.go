package archtest

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// A tree is a module checkout seen through an fs.FS: the real module for
// the rules, an fstest.MapFS for their negative cases. Every path is
// slash-separated and relative to the module root.
type tree struct {
	fsys    fs.FS
	module  string   // the module path go.mod declares
	goFiles []string // every .go file, test files included

	once    sync.Once
	pkgs    map[string]*pkg // non-test packages by import path
	loadErr error
}

// A pkg is one package's non-test files, parsed and type-checked.
type pkg struct {
	files   []*ast.File
	types   *types.Package
	info    *types.Info
	imports []string // import paths of the module packages it imports
	state   int      // 0 unchecked, 1 checking, 2 checked
}

var (
	moduleOnce sync.Once
	moduleTree *tree
	moduleErr  error
)

// module returns the tree of the module this package belongs to, shared by
// every rule so that it is parsed and type-checked once per test binary.
func module(t *testing.T) *tree {
	t.Helper()
	moduleOnce.Do(func() {
		dir, err := os.Getwd()
		for err == nil {
			if _, statErr := os.Stat(filepath.Join(dir, "go.mod")); statErr == nil {
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				err = fmt.Errorf("no go.mod above the test's directory")
			}
			dir = parent
		}
		if err == nil {
			moduleTree, err = newTree(os.DirFS(dir))
		}
		moduleErr = err
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleTree
}

// newTree lists fsys's Go files and reads its module path. Directories whose
// name starts with a dot (.git, build outputs) are not part of the tree.
func newTree(fsys fs.FS) (*tree, error) {
	gomod, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return nil, err
	}
	t := &tree{fsys: fsys}
	sc := bufio.NewScanner(bytes.NewReader(gomod))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "module" {
			t.module = f[1]
		}
	}
	if t.module == "" {
		return nil, fmt.Errorf("go.mod declares no module")
	}
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			t.goFiles = append(t.goFiles, p)
		}
		return nil
	})
	return t, err
}

func isTest(file string) bool { return strings.HasSuffix(file, "_test.go") }

// under reports whether file lies in directory dir ("" is the whole tree)
// or is dir itself.
func under(file, dir string) bool {
	return dir == "" || file == dir || strings.HasPrefix(file, dir+"/")
}

// lines returns, as "file:n: text", every line of the non-test Go files
// under dir that match reports true for, skipping files skip reports true
// for. It is grep -rn over the tree's non-test Go files.
func (t *tree) lines(dir string, skip func(file string) bool, match func(line string) bool) []string {
	var out []string
	for _, f := range t.goFiles {
		if isTest(f) || !under(f, dir) || (skip != nil && skip(f)) {
			continue
		}
		src, err := fs.ReadFile(t.fsys, f)
		if err != nil {
			out = append(out, f+": "+err.Error())
			continue
		}
		for i, l := range strings.Split(string(src), "\n") {
			if match(l) {
				out = append(out, fmt.Sprintf("%s:%d: %s", f, i+1, strings.TrimSpace(l)))
			}
		}
	}
	return out
}

// packages parses and type-checks every non-test package of the tree, once.
// Module imports resolve inside the tree; everything else is the standard
// library, type-checked from source.
func (t *tree) packages() (map[string]*pkg, error) {
	t.once.Do(func() {
		fset := token.NewFileSet()
		t.pkgs = map[string]*pkg{}
		for _, f := range t.goFiles {
			dir := path.Dir(f)
			if isTest(f) || strings.Contains("/"+dir+"/", "/testdata/") {
				continue
			}
			src, err := fs.ReadFile(t.fsys, f)
			if err != nil {
				t.loadErr = err
				return
			}
			file, err := parser.ParseFile(fset, f, src, parser.SkipObjectResolution)
			if err != nil {
				t.loadErr = err
				return
			}
			ip := t.module
			if dir != "." {
				ip += "/" + dir
			}
			p := t.pkgs[ip]
			if p == nil {
				p = &pkg{}
				t.pkgs[ip] = p
			}
			p.files = append(p.files, file)
		}
		imp := &loader{t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil)}
		for _, ip := range sortedKeys(t.pkgs) {
			if _, err := imp.Import(ip); err != nil {
				t.loadErr = err
				return
			}
		}
	})
	return t.pkgs, t.loadErr
}

// A loader is the types.Importer the tree's packages are checked with.
type loader struct {
	t    *tree
	fset *token.FileSet
	std  types.Importer
}

func (l *loader) Import(ip string) (*types.Package, error) {
	p := l.t.pkgs[ip]
	if p == nil {
		return l.std.Import(ip)
	}
	switch p.state {
	case 1:
		return nil, fmt.Errorf("import cycle through %s", ip)
	case 2:
		return p.types, nil
	}
	p.state = 1
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	var errs []string
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err.Error()) }}
	p.types, _ = conf.Check(ip, l.fset, p.files, p.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n\t%s", ip, strings.Join(errs, "\n\t"))
	}
	for _, dep := range p.types.Imports() {
		if l.t.pkgs[dep.Path()] != nil {
			p.imports = append(p.imports, dep.Path())
		}
	}
	p.state = 2
	return p.types, nil
}

// deps returns the module packages ip links: itself and every module
// package it imports, transitively (go list -deps, restricted to the module).
func (t *tree) deps(ip string) map[string]bool {
	out := map[string]bool{}
	var walk func(string)
	walk = func(ip string) {
		if out[ip] {
			return
		}
		out[ip] = true
		for _, dep := range t.pkgs[ip].imports {
			walk(dep)
		}
	}
	walk(ip)
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
