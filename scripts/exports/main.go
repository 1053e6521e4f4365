// Command exports lists every exported function and method declared in a
// non-test file of the root module's internal/ packages, one a line:
// <package>.[<Type>.]<Name>, then "used" or "unused".
//
// Used means a non-test file of the root module or of the bench module
// refers to it as the type checker resolves the reference, so a method
// is matched by its receiver type, not by its name; or it is a method
// by which its type satisfies an interface those files can see (their
// own, their dependencies', error). Dependencies outside both modules
// are read from the compiler's export data that `go list -export -deps
// -json` reports; a package of either module is the one type-checked
// from its source, so both modules share one set of types.
//
// Then it lists every named interface declared in a non-test file under
// internal/, exported or not, as <package>.<Name> interface N: N named
// types of both modules' non-test files implement it, as T or *T.
// scripts/ci_exports.sh judges the unused functions and the interfaces
// with fewer than two implementations.
//
//	go run ./scripts/exports
package main

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
)

func main() {
	fset := token.NewFileSet()
	used := make(map[string]bool)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var declared []*types.Func
	var interfaces []*types.TypeName
	var named []*types.Named
	checked := make(map[string]*types.Package)
	exports := make(map[string]string)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return gc.Import(path)
	})
	for _, mod := range [][2]string{{".", "uvacg"}, {"bench", "uvacg/bench"}} {
		err := check(fset, mod[0], mod[1], exports, imp, func(pkg *types.Package, files []*ast.File, info *types.Info) {
			checked[pkg.Path()] = pkg
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[key(fn)] = true
				}
			}
			ifaces = appendInterfaces(ifaces, pkg, seen)
			internal := strings.HasPrefix(pkg.Path(), "uvacg/internal/")
			for _, obj := range info.Defs {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if t, ok := tn.Type().(*types.Named); !ok || t.TypeParams().Len() > 0 {
					continue
				} else if !types.IsInterface(t) {
					named = append(named, t)
				} else if internal {
					interfaces = append(interfaces, tn)
				}
			}
			if !internal {
				return
			}
			for _, f := range files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
						declared = append(declared, info.Defs[fd.Name].(*types.Func))
					}
				}
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "exports:", err)
			os.Exit(1)
		}
	}
	var out []string
	for _, fn := range declared {
		k, state := key(fn), "unused"
		if used[k] || satisfies(fn, ifaces) {
			state = "used"
		}
		out = append(out, k[strings.LastIndex(k, "/")+1:]+" "+state)
	}
	sort.Strings(out)
	var impls []string
	for _, tn := range interfaces {
		it, n := tn.Type().Underlying().(*types.Interface), 0
		for _, t := range named {
			if types.Implements(types.NewPointer(t), it) {
				n++
			}
		}
		name := tn.Pkg().Path() + "." + tn.Name()
		impls = append(impls, fmt.Sprintf("%s interface %d", name[strings.LastIndex(name, "/")+1:], n))
	}
	sort.Strings(impls)
	fmt.Println(strings.Join(append(out, impls...), "\n"))
}

// importerFunc is a function as a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks the non-test files of each package of the module at
// dir, dependencies first, and hands each to visit. It records where the
// export data of every package the module depends on lies in exports,
// which imp reads.
func check(fset *token.FileSet, dir, module string, exports map[string]string, imp types.Importer, visit func(*types.Package, []*ast.File, *types.Info)) error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %w", dir, err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	var own []listed
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return err
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == module {
			own = append(own, p)
		}
	}
	conf := types.Config{Importer: imp}
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return err
		}
		visit(pkg, files, info)
	}
	return nil
}

// appendInterfaces adds the non-generic named interfaces of pkg and of
// everything it imports, each package once.
func appendInterfaces(ifaces []*types.Interface, pkg *types.Package, seen map[*types.Package]bool) []*types.Interface {
	if seen[pkg] {
		return ifaces
	}
	seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		named, ok := pkg.Scope().Lookup(name).Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			ifaces = append(ifaces, it)
		}
	}
	for _, dep := range pkg.Imports() {
		ifaces = appendInterfaces(ifaces, dep, seen)
	}
	return ifaces
}

// receiver returns the named type a method is declared on; nil for a
// function or an interface's method.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return named.Origin()
	}
	return nil
}

// key names fn by package path, receiver type and name.
func key(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if r := receiver(fn); r != nil {
		return fn.Pkg().Path() + "." + r.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// satisfies reports whether fn's receiver type, or a pointer to it,
// implements one of ifaces that has a method of fn's name.
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	r := receiver(fn)
	if r == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(r, it) || types.Implements(types.NewPointer(r), it)) {
				return true
			}
		}
	}
	return false
}
