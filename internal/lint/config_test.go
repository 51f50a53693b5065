package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The options rule. A config field is a value someone sets: a field no
// program, example or bench/ writes is a constant in disguise, read by
// every run at its withDefaults value and invisible to -sensitivity, so it
// becomes a constant at its use site. configKeep lists the two exceptions:
// a field tests set to non-default values to reach behaviour the pinned
// digests cover (the row names those tests, which must exist), and the one
// reference model.
var configKinds = map[string]bool{"tests": true, "reference model": true}

// configKeep maps "path.Type.Field" (a trailing * makes the row a prefix)
// to "kind: reason"; a tests row's reason is the list of those tests.
var configKeep = map[string]string{
	"repro/internal/overlay/chord.Config.RPCTimeout":  "tests: TestLookupAfterMassFailure, TestLookupResultsPinned",
	"repro/internal/overlay/onehop.Config.RPCTimeout": "tests: TestStaleViewCausesRetry, TestViewConvergesAfterLag, TestLookupResultsPinned",
	"repro/internal/overlay/onehop.Config.ViewLag":    "tests: TestStaleViewCausesRetry, TestViewConvergesAfterLag, TestLookupResultsPinned",
	"repro/internal/pbft.Config.ViewChangeTimeout":    "tests: TestPrimaryCrashTriggersViewChange, TestEquivocatingPrimaryCannotSplitState, TestInFlightPrePrepareAcrossCrash",
	"repro/internal/permissioned.Config.BlockTimeout": "tests: TestMVCCInvalidationEndToEnd",
	"repro/internal/gossip.Config.*":                  "reference model: the flooding relay TestGossipCalibratedForkRate cross-checks E08 with",
}

// TestConfigFieldsSet fails on any field of a non-test struct type under
// internal/ that is named *Config or *Params or has a withDefaults method,
// when no non-test code outside that type's withDefaults writes it and
// configKeep does not list it; and on any configKeep row that protects
// nothing or names a test its package lacks. A write is a composite-literal
// element (keyed or positional), an assignment, an increment or an
// address-of.
func TestConfigFieldsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	pkgs, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	deref := func(typ types.Type) types.Type {
		if p, ok := typ.(*types.Pointer); ok {
			return p.Elem()
		}
		return typ
	}
	key := func(owner types.Type, field string) string {
		if n, ok := deref(owner).(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field
		}
		return ""
	}
	fields := map[string]string{} // field -> its package's directory
	written := map[string]bool{}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var self types.Type // the receiver of a withDefaults method
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					self = deref(info.TypeOf(fd.Recv.List[0].Type))
				}
				write := func(owner types.Type, field string) {
					if self == nil || !types.Identical(deref(owner), self) {
						written[key(owner, field)] = true
					}
				}
				writeSel := func(e ast.Expr) {
					sx, ok := ast.Unparen(e).(*ast.SelectorExpr)
					sel := info.Selections[sx]
					if !ok || sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					owner := sel.Recv() // walk embedded fields to the one that declares it
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
					}
					write(owner, sel.Obj().Name())
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						tn, _ := info.Defs[n.Name].(*types.TypeName)
						st, ok := n.Type.(*ast.StructType)
						if !ok || tn == nil || !strings.Contains(pkg.ImportPath, "/internal/") {
							break
						}
						m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, "withDefaults")
						if _, isFunc := m.(*types.Func); !isFunc && !strings.HasSuffix(tn.Name(), "Config") && !strings.HasSuffix(tn.Name(), "Params") {
							break
						}
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								fields[key(tn.Type(), id.Name)] = filepath.Dir(pkg.Fset.Position(id.Pos()).Filename)
							}
						}
					case *ast.CompositeLit:
						typ := info.TypeOf(n)
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								write(typ, kv.Key.(*ast.Ident).Name)
							} else {
								write(typ, st.Field(i).Name())
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							writeSel(lhs)
						}
					case *ast.IncDecStmt:
						writeSel(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writeSel(n.X)
						}
					}
					return true
				})
			}
		}
	}
	protects := map[string]int{}
	var unset []string
	kept := 0
	for k := range fields {
		if written[k] {
			continue
		}
		n := 0
		for row := range configKeep {
			if k == row || strings.HasSuffix(row, "*") && strings.HasPrefix(k, row[:len(row)-1]) {
				protects[row]++
				n++
			}
		}
		if n == 0 {
			unset = append(unset, k)
		} else {
			kept++
		}
	}
	for row, why := range configKeep {
		kind, names, _ := strings.Cut(why, ":")
		if !configKinds[kind] {
			t.Errorf("keep row %q: reason %q is not of a kind the options rule allows", row, why)
		}
		if protects[row] == 0 {
			t.Errorf("keep row %q protects nothing: the field is gone, or a program writes it", row)
			continue
		}
		if kind == "tests" {
			have := testFuncs(t, fields[row])
			for _, name := range strings.Split(strings.TrimSpace(names), ", ") {
				if !have[name] {
					t.Errorf("keep row %q names %q, which is not a test of its package", row, name)
				}
			}
		}
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("no program writes config field %s: make it a constant at its use site", k)
	}
	t.Logf("%d config fields, %d of them kept unwritten", len(fields), kept)
}

// testFuncs returns the names of the Test functions in dir's test files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(fmt.Errorf("parsing %s: %w", name, err))
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				have[fd.Name.Name] = true
			}
		}
	}
	return have
}
