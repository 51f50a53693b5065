package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// declNode is one package-level declaration: its extent, the package-level
// objects and methods that extent mentions, and its type when it declares one.
type declNode struct {
	pos, end token.Pos
	uses     []string
	named    *types.TypeName
}

// objKey names a package-level object or method the same way whether it was
// type-checked from source or read from export data.
func objKey(o types.Object) string {
	if f, ok := o.(*types.Func); ok {
		return f.Origin().FullName()
	}
	if o.Pkg() == nil || o.Parent() != o.Pkg().Scope() {
		return ""
	}
	return o.Pkg().Path() + "." + o.Name()
}

// TestReachability fails on any declaration under internal/ that no program
// can reach and reachKeep does not list, and on any reachKeep row that
// protects nothing. Roots: main of every command, example and bench/, the
// root package's exported API, init functions and blank variables. Edges:
// every identifier a declaration's extent uses; a method of a reached type
// is reached when the type implements an interface that declares it.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	pkgs, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*declNode{}
	var roots []string
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	scanned := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) { // every interface an imported package exports
		if scanned[p] {
			return
		}
		scanned[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, pkg := range pkgs {
		scan(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types { // and every one the source mentions
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		add := func(id *ast.Ident, n ast.Node, root bool) {
			node := &declNode{pos: n.Pos(), end: n.End()}
			ast.Inspect(n, func(c ast.Node) bool {
				if u, ok := c.(*ast.Ident); ok && pkg.TypesInfo.Uses[u] != nil {
					if k := objKey(pkg.TypesInfo.Uses[u]); k != "" {
						node.uses = append(node.uses, k)
					}
				}
				return true
			})
			key := fmt.Sprintf("%s#%d", pkg.ImportPath, n.Pos()) // init and _ have no name to be used by
			if id.Name == "_" || id.Name == "init" {
				root = true
			} else {
				key = objKey(pkg.TypesInfo.Defs[id])
				node.named, _ = pkg.TypesInfo.Defs[id].(*types.TypeName)
			}
			nodes[key] = node
			if root || (pkg.ImportPath == "repro" && id.IsExported()) {
				roots = append(roots, key)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d, pkg.Types.Name() == "main" && d.Name.Name == "main")
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, false)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s, false)
							}
						}
					}
				}
			}
		}
	}
	reach := func(work []string) map[string]bool {
		seen := map[string]bool{}
		for len(work) > 0 {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			n := nodes[k]
			if n == nil || seen[k] {
				continue
			}
			seen[k] = true
			work = append(work, n.uses...)
			if n.named == nil {
				continue
			}
			ptr := types.NewPointer(n.named.Type())
			ms := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						work = append(work, objKey(sel.Obj()))
					}
				}
			}
		}
		return seen
	}
	live := reach(append([]string(nil), roots...))
	protects := map[string]int{}
	for k := range nodes {
		for row := range reachKeep {
			if !live[k] && (k == row || strings.HasSuffix(row, "*") && strings.HasPrefix(k, row[:len(row)-1])) {
				protects[row]++
				roots = append(roots, k) // what a kept declaration uses is kept with it
			}
		}
	}
	for row, why := range reachKeep {
		if kind, _, _ := strings.Cut(why, ":"); !reachKinds[kind] {
			t.Errorf("keep-list row %q: reason %q is not of a kind the keep rule allows", row, why)
		}
		if protects[row] == 0 {
			t.Errorf("keep-list row %q protects nothing: it no longer exists, or a program reaches it", row)
		}
	}
	live = reach(roots)
	var dead []string
	fset := pkgs[0].Fset
	for k, n := range nodes {
		if p := fset.Position(n.pos); !live[k] && strings.Contains(p.Filename, "/internal/") {
			dead = append(dead, fmt.Sprintf("%s:%d: %s (%d lines)", p.Filename, p.Line, k, fset.Position(n.end).Line-p.Line+1))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program reaches it and the keep-list does not name it: %s", d)
	}
}
