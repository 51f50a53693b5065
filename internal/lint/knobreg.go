package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// KnobReg cross-checks knob-reader call sites against the KnobSpecs
// registry. knobInt/knobFloat/knobIndex/scaledSize silently apply the
// spec's default when the name is absent from the registry map — so a
// typo'd knob string compiles, runs, and sweeps a knob the experiment
// never reads. This analyzer turns that into a lint failure: every knob
// name passed to a reader must be a constant string present as a key of
// the package's `knobSpecs` map literal.
var KnobReg = &Analyzer{
	Name: "knobreg",
	Doc: "verifies every knobInt/knobFloat/knobIndex/scaledSize knob-name " +
		"literal appears as a key of the knobSpecs registry map in the same " +
		"package, and that knob names are constant strings at all",
	Run: runKnobReg,
}

// knobReaderArg maps knob-reader function names to the index of their
// knob-name argument.
var knobReaderArg = map[string]int{
	"knobInt":    1,
	"knobFloat":  1,
	"knobIndex":  1,
	"scaledSize": 1,
}

func runKnobReg(pass *Pass) {
	registry := collectKnobRegistry(pass)
	if registry == nil {
		// No knobSpecs map literal in this package: nothing to check
		// against. The readers live beside the registry by construction.
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			// The reader implementations themselves thread the knob name
			// through as a variable (knobIndex delegates to knobFloat,
			// scaledSize to knobInt); their bodies are exempt.
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if _, isReader := knobReaderArg[fd.Name.Name]; isReader && fd.Recv == nil {
					continue
				}
			}
			checkKnobCalls(pass, decl, registry)
		}
	}
}

// checkKnobCalls flags unregistered or non-constant knob names in reader
// calls under root.
func checkKnobCalls(pass *Pass, root ast.Node, registry map[string]bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != pass.Pkg {
			return true
		}
		idx, ok := knobReaderArg[fn.Name()]
		if !ok || len(call.Args) <= idx {
			return true
		}
		arg := call.Args[idx]
		tv := pass.TypesInfo.Types[arg]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(arg.Pos(), "%s knob name is not a constant string; the registry cross-check needs a literal", fn.Name())
			return true
		}
		name := constant.StringVal(tv.Value)
		if !registry[name] {
			pass.Reportf(arg.Pos(), "knob %q is not registered in knobSpecs; %s would silently fall back to a zero default", name, fn.Name())
		}
		return true
	})
}

// collectKnobRegistry returns the key set of the package-level `knobSpecs`
// map composite literal, or nil if the package declares none.
func collectKnobRegistry(pass *Pass) map[string]bool {
	var registry map[string]bool
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "knobSpecs" || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					if t := pass.TypesInfo.Types[lit].Type; t == nil {
						continue
					} else if _, isMap := t.Underlying().(*types.Map); !isMap {
						continue
					}
					if registry == nil {
						registry = make(map[string]bool, len(lit.Elts))
					}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						ktv := pass.TypesInfo.Types[kv.Key]
						if ktv.Value != nil && ktv.Value.Kind() == constant.String {
							registry[constant.StringVal(ktv.Value)] = true
						}
					}
				}
			}
		}
	}
	return registry
}
