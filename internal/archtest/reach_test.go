package archtest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"regexp"
	"sort"
	"strings"
)

// testOnlyFile lists the top-level functions and methods that no non-test
// code references but that stay: one symbol per line, then its owner
// ROADMAP item ("item N: ...") or why it is kept ("keep: ...").
const testOnlyFile = "internal/archtest/testonly.txt"

var ownerRE = regexp.MustCompile(`^(item [0-9]+|keep): \S`)

// unreachable is the reachability rule: every top-level func or method in a
// non-test file is referenced by some non-test file, other than from its own
// body, unless it is main or init, a method an interface the module declares
// or uses asks for, or a line of testonly.txt. A line of testonly.txt whose
// symbol is referenced, or no longer exists, fails too, so the list only
// shrinks.
func unreachable(t *tree) []string {
	pkgs, err := t.packages()
	if err != nil {
		return []string{err.Error()}
	}
	listed, bad := readTestOnly(t)

	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // method name -> interfaces asking for it
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					addIface(it)
				}
			}
		}
		for _, dep := range tp.Imports() {
			addScope(dep)
		}
	}

	type decl struct {
		sym string
		fn  *types.Func
	}
	var decls []decl
	for _, ip := range sortedKeys(pkgs) {
		p := pkgs[ip]
		addScope(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.IsMethodSet() && tv.IsType() {
				addIface(it)
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := p.info.Defs[fd.Name].(*types.Func)
					self = fn
					decls = append(decls, decl{symbol(t.module, fn), fn})
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil {
							if fn, ok := obj.(*types.Func); ok {
								obj = fn.Origin()
							}
							if obj != self {
								used[obj] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	out := bad
	for _, d := range decls {
		_, isListed := listed[d.sym]
		delete(listed, d.sym)
		switch {
		case used[d.fn]:
			if isListed {
				out = append(out, fmt.Sprintf("%s: %s is referenced by non-test code; take it off the list", testOnlyFile, d.sym))
			}
		case isListed, exempt(d.fn, ifaces):
		default:
			out = append(out, d.sym+" has no non-test reference")
		}
	}
	for _, sym := range sortedKeys(listed) {
		out = append(out, fmt.Sprintf("%s: %s no longer exists; take it off the list", testOnlyFile, sym))
	}
	return out
}

// symbol names fn as testonly.txt does: the package's path inside the
// module, then the receiver's type name for a method, then the name.
func symbol(module string, fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), module), "/")
	if pkg == "" {
		pkg = "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// exempt reports whether fn is main, init, or a method that makes its
// receiver type satisfy an interface asking for it by name.
func exempt(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name() == "init" || (fn.Name() == "main" && fn.Pkg().Name() == "main")
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, _ := rt.(*types.Named)
	for _, it := range ifaces[fn.Name()] {
		if named == nil || named.TypeParams().Len() > 0 {
			return true // a generic receiver: the name alone decides
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// readTestOnly parses testonly.txt into its symbols, and reports every
// line that names no owner or reason, or repeats a symbol.
func readTestOnly(t *tree) (map[string]string, []string) {
	listed := map[string]string{}
	src, err := fs.ReadFile(t.fsys, testOnlyFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return listed, nil
		}
		return listed, []string{err.Error()}
	}
	var bad []string
	sc := bufio.NewScanner(bytes.NewReader(src))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, owner, _ := strings.Cut(line, " ")
		owner = strings.TrimSpace(owner)
		switch {
		case !ownerRE.MatchString(owner):
			bad = append(bad, fmt.Sprintf("%s:%d: %s names no owner: want \"item N: ...\" or \"keep: ...\"", testOnlyFile, n, sym))
		case listed[sym] != "":
			bad = append(bad, fmt.Sprintf("%s:%d: %s is listed twice", testOnlyFile, n, sym))
		default:
			listed[sym] = owner
		}
	}
	sort.Strings(bad)
	return listed, bad
}
